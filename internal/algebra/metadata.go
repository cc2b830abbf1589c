package algebra

import (
	"fmt"
	"slices"
	"strconv"

	"orthoq/internal/sql/types"
)

// ColumnMeta describes one column ID: display name, type, nullability
// and, for base-table columns, its origin.
type ColumnMeta struct {
	// Alias is the display name, e.g. "c_custkey" or "sum".
	Alias string
	// Type is the column's SQL type.
	Type types.Kind
	// NotNull records that the column can never be NULL in the relation
	// producing it (before any outer join NULL-padding).
	NotNull bool
	// Table qualifies the column in plan text: the name the query gave
	// the table reference it comes from — its alias, or the table's name
	// where it gave none ("" for a column that is not a base table's).
	Table string
	// Source and Ord identify the stored column this ID was created for:
	// the catalog name of the base table and the column's position in
	// it. Statistics are looked up by them; Source is "" otherwise.
	Source string
	Ord    int
}

// Metadata allocates and describes column IDs for one query. It is
// shared by all expressions of a query through optimization.
type Metadata struct {
	cols []ColumnMeta // ColID n is cols[n-1]
	// derived holds the columns DerivedColumn has minted.
	derived map[derivedKey]ColID
	// at makes md InstanceOf's renderer, and nothing else of it is set:
	// it names the columns in at by their positions there.
	at []ColID
}

type derivedKey struct {
	from ColID
	role string
}

// NewMetadata returns an empty metadata.
func NewMetadata() *Metadata { return &Metadata{} }

// AddColumn allocates a fresh column ID.
func (md *Metadata) AddColumn(alias string, typ types.Kind) ColID {
	md.cols = append(md.cols, ColumnMeta{Alias: alias, Type: typ})
	return ColID(len(md.cols))
}

// DerivedColumn returns the column a rewrite derives from column from
// in the given role (a partial aggregate "_l", a pre-aggregate "_pre",
// a segment copy, ...): allocated as meta on the first request and the
// same ID on every later one. A rule that computes the same thing from
// the same column twice thereby builds the same expression twice, which
// is what lets the optimizer's memo recognize a rewrite it has already
// seen and lets push/pull cycles of rules close. A plan holds at most
// one producer of from, hence at most one of the derived column.
func (md *Metadata) DerivedColumn(from ColID, role string, meta ColumnMeta) ColID {
	key := derivedKey{from, role}
	id, ok := md.derived[key]
	if !ok {
		md.cols = append(md.cols, meta)
		id = ColID(len(md.cols))
		if md.derived == nil {
			md.derived = map[derivedKey]ColID{}
		}
		md.derived[key] = id
	}
	return id
}

// AddTableColumn allocates an ID for column ord of the base table
// source, referenced in the query as table.
func (md *Metadata) AddTableColumn(source, table, alias string, typ types.Kind, notNull bool, ord int) ColID {
	md.cols = append(md.cols, ColumnMeta{
		Alias: alias, Type: typ, NotNull: notNull, Table: table, Source: source, Ord: ord,
	})
	return ColID(len(md.cols))
}

// CopyColumn allocates a fresh ID described as id is: another instance
// of the same column.
func (md *Metadata) CopyColumn(id ColID) ColID {
	md.cols = append(md.cols, *md.Column(id))
	return ColID(len(md.cols))
}

// Column returns the metadata for id. It panics on an unknown ID, which
// indicates an optimizer bug.
func (md *Metadata) Column(id ColID) *ColumnMeta {
	if id < 1 || int(id) > len(md.cols) {
		panic(fmt.Sprintf("algebra: unknown column id %d", id))
	}
	return &md.cols[id-1]
}

// Alias returns the display name of id.
func (md *Metadata) Alias(id ColID) string { return md.Column(id).Alias }

// Type returns the type of id.
func (md *Metadata) Type(id ColID) types.Kind { return md.Column(id).Type }

// NumColumns returns how many IDs have been allocated.
func (md *Metadata) NumColumns() int { return len(md.cols) }

// QualifiedAlias renders "table.alias" when the column has a base table.
func (md *Metadata) QualifiedAlias(id ColID) string {
	c := md.Column(id)
	if c.Table != "" {
		return c.Table + "." + c.Alias
	}
	return c.Alias
}

// keying reports whether md renders keys: a nil md, AppendNodeKey's,
// names every column by its ID; InstanceOf's names those it numbers by
// position and any other by its ID.
func (md *Metadata) keying() bool { return md == nil || md.at != nil }

// keyRank orders the columns of a key: by position, then by ID.
func (md *Metadata) keyRank(id ColID) int {
	if md != nil {
		if p := slices.Index(md.at, id); p >= 0 {
			return p
		}
	}
	return 1<<32 + int(id)
}

// appendQualifiedAlias appends QualifiedAlias(id) to b. A keying md
// names the column by its ID or its position instead: aliases repeat
// across instances of one table, IDs and positions do not.
func (md *Metadata) appendQualifiedAlias(b []byte, id ColID) []byte {
	if md.keying() {
		if p := md.keyRank(id); p < 1<<32 {
			return strconv.AppendInt(append(b, '@'), int64(p), 10)
		}
		return strconv.AppendInt(append(b, '#'), int64(id), 10)
	}
	c := md.Column(id)
	if c.Table != "" {
		b = append(append(b, c.Table...), '.')
	}
	return append(b, c.Alias...)
}

// appendAlias appends Alias(id) to b, or its key name under a keying md.
func (md *Metadata) appendAlias(b []byte, id ColID) []byte {
	if md.keying() {
		return md.appendQualifiedAlias(b, id)
	}
	return append(b, md.Column(id).Alias...)
}
