// Package types implements the SQL value domain used throughout the
// engine: nullable datums over a small set of primitive types, SQL
// comparison and arithmetic semantics (including three-valued logic),
// and hashing support for join and aggregation operators.
//
// The representation is a single flat struct so that rows ([]Datum) are
// contiguous and comparison does not allocate.
package types

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
	"unsafe"
)

// Kind enumerates the primitive SQL types supported by the engine.
type Kind uint8

// The supported kinds. Unknown is the kind of an untyped NULL.
const (
	Unknown Kind = iota
	Bool
	Int    // 64-bit signed integer
	Float  // 64-bit IEEE float; also used for SQL DECIMAL in this engine
	String // variable-length character data
	Date   // days since 1970-01-01
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Unknown:
		return "unknown"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Date:
		return "date"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind supports arithmetic.
func (k Kind) Numeric() bool { return k == Int || k == Float }

// Datum is a single nullable SQL value. The zero value is the untyped
// NULL. Datums are immutable by convention: operators copy rather than
// mutate them.
//
// A datum is 32 bytes: kind and presence flag in the first word, one
// payload word, and the string header. Int, Date and Bool keep their
// value in i, and a Float keeps its IEEE-754 bits there (Float
// converts them back). In a row that starts 32-byte aligned, as every
// row allocated on its own with up to 16 columns does (a stored TPC-H
// row is one), each datum fills half of a 64-byte cache line and none
// straddles two. Because a float is stored as bits, == on datums is
// bitwise for floats (NaN equals itself, -0 does not equal 0); SQL
// comparison is Compare's.
type Datum struct {
	kind  Kind
	valid bool  // false for SQL NULL, so that Datum{} is NullUnknown
	i     int64 // Int, Date and Bool (0/1) payload; a Float's bits
	s     string
}

// Null constructs a typed NULL of the given kind.
func Null(k Kind) Datum { return Datum{kind: k} }

// NullUnknown is the untyped NULL.
var NullUnknown = Datum{}

// NewInt returns an Int datum.
func NewInt(v int64) Datum { return Datum{kind: Int, valid: true, i: v} }

// NewFloat returns a Float datum.
func NewFloat(v float64) Datum {
	return Datum{kind: Float, valid: true, i: int64(math.Float64bits(v))}
}

// NewString returns a String datum.
func NewString(v string) Datum { return Datum{kind: String, valid: true, s: v} }

// NewBool returns a Bool datum.
func NewBool(v bool) Datum {
	d := Datum{kind: Bool, valid: true}
	if v {
		d.i = 1
	}
	return d
}

// NewDate returns a Date datum holding days since the Unix epoch.
func NewDate(days int64) Datum { return Datum{kind: Date, valid: true, i: days} }

// DateFromString parses "YYYY-MM-DD" into a Date datum.
func DateFromString(s string) (Datum, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return NullUnknown, fmt.Errorf("invalid date %q: %w", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// MustDate is DateFromString that panics on malformed input. It is
// intended for compile-time-constant dates in tests and generators.
func MustDate(s string) Datum {
	d, err := DateFromString(s)
	if err != nil {
		panic(err)
	}
	return d
}

// Kind returns the datum's type.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return !d.valid }

// Int returns the integer payload. It is valid only for Int kind.
func (d Datum) Int() int64 { return d.i }

// Float returns the float payload. It is valid only for Float kind.
func (d Datum) Float() float64 { return math.Float64frombits(uint64(d.i)) }

// Str returns the string payload. It is valid only for String kind.
func (d Datum) Str() string { return d.s }

// Bool returns the boolean payload. It is valid only for Bool kind.
func (d Datum) Bool() bool { return d.i != 0 }

// Days returns the date payload (days since epoch), valid for Date kind.
func (d Datum) Days() int64 { return d.i }

// AsFloat converts a numeric datum to float64. NULL converts to 0 with
// ok=false.
func (d Datum) AsFloat() (v float64, ok bool) {
	if !d.valid {
		return 0, false
	}
	switch d.kind {
	case Int:
		return float64(d.i), true
	case Float:
		return d.Float(), true
	}
	return 0, false
}

// String renders the datum for display and plan formatting.
func (d Datum) String() string {
	if !d.valid {
		return "NULL"
	}
	switch d.kind {
	case Bool:
		if d.i != 0 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(d.i, 10)
	case Float:
		return strconv.FormatFloat(d.Float(), 'f', -1, 64)
	case String:
		return "'" + d.s + "'"
	case Date:
		return time.Unix(d.i*86400, 0).UTC().Format("2006-01-02")
	default:
		return "?"
	}
}

// Compare orders two datums. It is a total order, and the only one:
// SQL comparisons (CompareSQL), grouping (Equal), the Sort operator,
// ordered indexes and their seeks all use it. NULLs sort before all
// non-NULL values (SQL comparison semantics with NULL propagation live
// in CompareSQL). Cross-kind numeric comparisons (Int vs Float) are
// supported; any other kind mismatch panics, since the algebrizer
// assigns consistent types. A NaN equals another NaN and sorts after
// every number; -0 equals 0.
func Compare(a, b Datum) int {
	switch {
	case !a.valid && !b.valid:
		return 0
	case !a.valid:
		return -1
	case !b.valid:
		return 1
	}
	if a.kind != b.kind {
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		if aok && bok {
			return cmpFloat(af, bf)
		}
		panic(fmt.Sprintf("types: cannot compare %s with %s", a.kind, b.kind))
	}
	switch a.kind {
	case Bool, Int, Date:
		return cmpInt(a.i, b.i)
	case Float:
		return cmpFloat(a.Float(), b.Float())
	case String:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpFloat is Compare's order of floats: IEEE's, with a NaN after
// every number and equal to another NaN.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b, a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

// TriBool is SQL three-valued logic: True, False or Null.
type TriBool uint8

// Three-valued logic constants.
const (
	TriFalse TriBool = iota
	TriTrue
	TriNull
)

// String renders a TriBool.
func (t TriBool) String() string {
	switch t {
	case TriTrue:
		return "true"
	case TriFalse:
		return "false"
	default:
		return "null"
	}
}

// TriOf lifts a Go bool into TriBool.
func TriOf(b bool) TriBool {
	if b {
		return TriTrue
	}
	return TriFalse
}

// And is 3VL conjunction.
func (t TriBool) And(o TriBool) TriBool {
	if t == TriFalse || o == TriFalse {
		return TriFalse
	}
	if t == TriNull || o == TriNull {
		return TriNull
	}
	return TriTrue
}

// Or is 3VL disjunction.
func (t TriBool) Or(o TriBool) TriBool {
	if t == TriTrue || o == TriTrue {
		return TriTrue
	}
	if t == TriNull || o == TriNull {
		return TriNull
	}
	return TriFalse
}

// Not is 3VL negation.
func (t TriBool) Not() TriBool {
	switch t {
	case TriTrue:
		return TriFalse
	case TriFalse:
		return TriTrue
	default:
		return TriNull
	}
}

// CompareSQL compares with SQL semantics: if either operand is NULL the
// result of any comparison is unknown (TriNull); otherwise cmp receives
// the ordering result.
func CompareSQL(a, b Datum, test func(int) bool) TriBool {
	if !a.valid || !b.valid {
		return TriNull
	}
	return TriOf(test(Compare(a, b)))
}

// Equal reports strict equality used for grouping and duplicate
// elimination: NULLs compare equal to each other (SQL GROUP BY
// semantics), and values equal per Compare.
func Equal(a, b Datum) bool {
	if !a.valid || !b.valid {
		return a.valid == b.valid
	}
	if a.kind == b.kind {
		// Exact-equality kinds skip the three-way order (two string
		// comparisons for a String). Floats keep it: a NaN equals
		// another NaN, which == does not say.
		switch a.kind {
		case Bool, Int, Date:
			return a.i == b.i
		case String:
			return a.s == b.s
		}
	}
	return Compare(a, b) == 0
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a hash of the datum consistent with Equal: datums that
// are Equal hash identically (numeric kinds hash via their float value
// so 1 and 1.0 collide, matching Compare). Strings are hashed with
// FNV-1a, the other kinds by one 64-bit mix of their payload word
// (mix64, a bijection, so distinct payloads never collide) — both
// allocation-free and an order of magnitude faster than a per-datum
// maphash, which matters in hash joins and aggregation.
func (d Datum) Hash() uint64 {
	if !d.valid {
		return HashNull
	}
	switch d.kind {
	case Bool:
		return mix64(uint64(d.i) ^ seedBool)
	case Int:
		return HashInt(d.i)
	case Float:
		return HashFloat(d.Float())
	case Date:
		return mix64(uint64(d.i) ^ seedDate)
	case String:
		return HashString(d.s)
	}
	return fnvOffset
}

// Typed forms of Hash, for hashing a column without boxing it: each
// equals Hash of the datum of its kind holding the value.

// HashNull is Hash of every NULL.
var HashNull = fnvByte(fnvOffset, 0)

// HashInt hashes an Int through its float64 value, so that Int(1) and
// Float(1.0), which compare equal, hash equal too.
func HashInt(i int64) uint64 { return HashFloat(float64(i)) }

// HashFloat hashes a Float; -0 compares equal to 0, so it hashes as 0,
// and every NaN payload hashes as math.NaN()'s, so that hash grouping
// and hash joins keep all NaNs in one key, as Compare does.
func HashFloat(f float64) uint64 {
	if f == 0 {
		f = 0
	} else if f != f {
		f = math.NaN()
	}
	return mix64(math.Float64bits(f) ^ seedNumeric)
}

// HashString hashes a String's bytes.
func HashString(s string) uint64 {
	h := fnvByte(fnvOffset, 4)
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Per-kind seeds of mix64, so that equal payload words of different
// kinds (a Date and an Int) hash apart.
const (
	seedBool    = 0x2545f4914f6cdd1d
	seedNumeric = 0x9e3779b97f4a7c15
	seedDate    = 0xbf58476d1ce4e5b9
)

// mix64 is MurmurHash3's 64-bit finalizer: every input bit reaches
// every output bit, and it is a bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

// Row is a tuple of datums. Rows are positional; the optimizer maps
// column IDs to ordinals when building the physical plan.
type Row []Datum

// RowBytes approximates the memory a row holds: its slice header, one
// Datum per column and the string payloads. Memory budgets and cache
// byte accounting charge it; it bounds order of magnitude, not malloc
// bytes (a string shared by many rows is counted in each).
func RowBytes(r Row) int64 {
	n := int64(unsafe.Sizeof(r)) + int64(unsafe.Sizeof(Datum{}))*int64(len(r))
	for i := range r {
		n += int64(len(r[i].s)) // empty unless a non-NULL String
	}
	return n
}

// Clone returns a deep-enough copy of the row (datums are values).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// HashRow hashes the datums at the given ordinals, for hash joins and
// hash aggregation: MixHash folds each datum's Hash into HashSeed.
func HashRow(r Row, ords []int) uint64 {
	acc := uint64(HashSeed)
	for _, o := range ords {
		acc = MixHash(acc, r[o].Hash())
	}
	return acc
}

// HashSeed is HashRow's accumulator before the first column.
const HashSeed = fnvOffset

// MixHash folds one column's datum hash h into a HashRow accumulator.
func MixHash(acc, h uint64) uint64 { return (acc ^ h) * fnvPrime }

// EqualRows reports whether rows agree (per Equal) on the given ordinal
// pairs.
func EqualRows(a Row, aOrds []int, b Row, bOrds []int) bool {
	for i := range aOrds {
		if !Equal(a[aOrds[i]], b[bOrds[i]]) {
			return false
		}
	}
	return true
}

// Column is one column of a row slice in typed form, the layout
// column-at-a-time kernels read: row i's value is at index i of I (Int,
// Date, and Bool as 0/1), F (Float) or S (String), chosen by Kind.
// Null[i] marks a NULL row and is nil while no row is NULL; the payload
// at a NULL row is zero. Kind is Unknown while every row is NULL.
type Column struct {
	Kind Kind
	I    []int64
	F    []float64
	S    []string
	Null []bool
	N    int // rows held
}

// Append adds d as the next row. It reports false, leaving c as it
// was, when d is a non-NULL datum of a kind other than the column's:
// a column holds one kind, taken from its first non-NULL row.
func (c *Column) Append(d Datum) bool {
	if d.valid && d.kind != c.Kind {
		if c.Kind != Unknown {
			return false
		}
		switch c.Kind = d.kind; d.kind {
		case Float:
			c.F = make([]float64, c.N)
		case String:
			c.S = make([]string, c.N)
		default:
			c.I = make([]int64, c.N)
		}
	}
	if !d.valid && c.Null == nil {
		c.Null = make([]bool, c.N)
	}
	if c.Null != nil {
		c.Null = append(c.Null, !d.valid)
	}
	switch c.Kind { // a NULL's payload is zero
	case Unknown:
	case Float:
		c.F = append(c.F, d.Float())
	case String:
		c.S = append(c.S, d.s)
	default:
		c.I = append(c.I, d.i)
	}
	c.N++
	return true
}

// AppendColumn appends datum ord of each row, as Append does, until a
// row does not fit, and reports whether every row did. The arrays grow
// at once to hold them all.
func (c *Column) AppendColumn(rows []Row, ord int) bool {
	for i, r := range rows {
		k := c.Kind
		if !c.Append(r[ord]) {
			return false
		}
		if n := len(rows) - i - 1; i == 0 || k != c.Kind {
			c.I, c.F, c.S = grow(c.I, n), grow(c.F, n), grow(c.S, n)
		}
	}
	return true
}

// Datum boxes row i.
func (c *Column) Datum(i int) Datum {
	if c.Kind == Unknown || c.Null != nil && c.Null[i] {
		return Null(c.Kind)
	}
	switch c.Kind {
	case Float:
		return NewFloat(c.F[i])
	case String:
		return NewString(c.S[i])
	}
	return Datum{kind: c.Kind, valid: true, i: c.I[i]}
}

// grow makes room for n more elements in s, unless s is nil.
func grow[T any](s []T, n int) []T {
	if s == nil {
		return nil
	}
	return slices.Grow(s, n)
}
