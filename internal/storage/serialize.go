// Version-set serialization: the binary row/schema codec shared by the
// write-ahead log (per-record row payloads) and the checkpointer (the
// whole published version set of a store). The encoding is
// self-describing per datum — kind byte with a NULL flag, then a
// fixed- or length-prefixed payload — so replay needs no schema
// context beyond the row itself, and a schema change between writer
// and reader surfaces as a decode error rather than silent
// misinterpretation.
package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
)

// nullFlag is OR-ed into the datum kind byte for SQL NULL values.
const nullFlag = 0x80

// AppendDatum appends the binary encoding of one datum to buf.
func AppendDatum(buf []byte, d types.Datum) []byte {
	k := byte(d.Kind())
	if d.IsNull() {
		return append(buf, k|nullFlag)
	}
	buf = append(buf, k)
	switch d.Kind() {
	case types.Bool:
		if d.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case types.Int:
		return binary.AppendVarint(buf, d.Int())
	case types.Date:
		return binary.AppendVarint(buf, d.Days())
	case types.Float:
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(d.Float()))
	case types.String:
		buf = binary.AppendUvarint(buf, uint64(len(d.Str())))
		return append(buf, d.Str()...)
	default:
		// Unknown non-NULL has no payload (it cannot be produced by the
		// engine; the byte keeps the stream decodable).
		return buf
	}
}

// DecodeDatum decodes one datum from buf, returning the remainder.
func DecodeDatum(buf []byte) (types.Datum, []byte, error) {
	if len(buf) == 0 {
		return types.Datum{}, nil, io.ErrUnexpectedEOF
	}
	k, buf := buf[0], buf[1:]
	kind := types.Kind(k &^ nullFlag)
	if k&nullFlag != 0 {
		return types.Null(kind), buf, nil
	}
	switch kind {
	case types.Bool:
		if len(buf) < 1 {
			return types.Datum{}, nil, io.ErrUnexpectedEOF
		}
		return types.NewBool(buf[0] != 0), buf[1:], nil
	case types.Int, types.Date:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return types.Datum{}, nil, io.ErrUnexpectedEOF
		}
		if kind == types.Date {
			return types.NewDate(v), buf[n:], nil
		}
		return types.NewInt(v), buf[n:], nil
	case types.Float:
		if len(buf) < 8 {
			return types.Datum{}, nil, io.ErrUnexpectedEOF
		}
		return types.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(buf))), buf[8:], nil
	case types.String:
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return types.Datum{}, nil, io.ErrUnexpectedEOF
		}
		return types.NewString(string(buf[n : n+int(l)])), buf[n+int(l):], nil
	case types.Unknown:
		return types.NullUnknown, buf, nil
	default:
		return types.Datum{}, nil, fmt.Errorf("storage: unknown datum kind byte 0x%02x", k)
	}
}

// AppendRow appends one row (column count prefix + datums) to buf.
func AppendRow(buf []byte, row types.Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, d := range row {
		buf = AppendDatum(buf, d)
	}
	return buf
}

// DecodeRow decodes one row from buf, returning the remainder.
func DecodeRow(buf []byte) (types.Row, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	buf = buf[w:]
	if n > uint64(len(buf)) {
		// Every datum takes at least its kind byte: a count the remaining
		// bytes cannot hold is corruption, not a size to allocate.
		return nil, nil, io.ErrUnexpectedEOF
	}
	row := make(types.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		var d types.Datum
		var err error
		d, buf, err = DecodeDatum(buf)
		if err != nil {
			return nil, nil, err
		}
		row = append(row, d)
	}
	return row, buf, nil
}

// AppendRows appends a row batch (count prefix + rows) to buf.
func AppendRows(buf []byte, rows []types.Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, r := range rows {
		buf = AppendRow(buf, r)
	}
	return buf
}

// DecodeRows decodes a row batch from buf, returning the remainder.
func DecodeRows(buf []byte) ([]types.Row, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	buf = buf[w:]
	if n > uint64(len(buf)) {
		return nil, nil, io.ErrUnexpectedEOF // every row takes at least its count byte
	}
	rows := make([]types.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		var r types.Row
		var err error
		r, buf, err = DecodeRow(buf)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, r)
	}
	return rows, buf, nil
}

// AppendSchema appends a table schema (JSON, length-prefixed) to buf.
// Schemas are rare (one per CreateTable record, one per table per
// checkpoint) and carry nested structure, so the robustness of JSON
// beats a hand-rolled binary layout here.
func AppendSchema(buf []byte, t *catalog.Table) ([]byte, error) {
	js, err := json.Marshal(t)
	if err != nil {
		return nil, err
	}
	buf = binary.AppendUvarint(buf, uint64(len(js)))
	return append(buf, js...), nil
}

// DecodeSchema decodes a table schema from buf, returning the
// remainder.
func DecodeSchema(buf []byte) (*catalog.Table, []byte, error) {
	l, w := binary.Uvarint(buf)
	if w <= 0 || uint64(len(buf)-w) < l {
		return nil, nil, io.ErrUnexpectedEOF
	}
	var t catalog.Table
	if err := json.Unmarshal(buf[w:w+int(l)], &t); err != nil {
		return nil, nil, fmt.Errorf("storage: bad schema: %w", err)
	}
	return &t, buf[w+int(l):], nil
}

// WriteSnapshot serializes a pinned snapshot — every table's schema,
// publication LSN, and rows — to w. Tables are written in sorted name
// order so the byte stream is deterministic for a given version set.
// The format is the checkpoint body; framing (magic, checkpoint LSN,
// CRC) belongs to the caller.
func WriteSnapshot(w io.Writer, sn *Snapshot) error {
	names := make([]string, 0, len(sn.versions))
	for name := range sn.versions {
		names = append(names, name)
	}
	sort.Strings(names)

	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(names)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	for _, name := range names {
		v := sn.versions[name]
		buf, err := AppendSchema(nil, v.Schema)
		if err != nil {
			return err
		}
		buf = binary.BigEndian.AppendUint64(buf, v.lsn)
		buf = AppendRows(buf, v.rows)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadSnapshot deserializes a WriteSnapshot stream into a fresh store:
// catalog entries registered, rows loaded, and each table's version
// stamped with its serialized publication LSN. Every row must fit its
// table's schema, as an insert's must: a checksum catches flipped bits,
// not a well-formed row of the wrong width or kind. Indexes are not
// persisted — callers rebuild them (Analyze) after recovery.
func ReadSnapshot(buf []byte) (*Store, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, io.ErrUnexpectedEOF
	}
	buf = buf[w:]
	st := New(catalog.New())
	for i := uint64(0); i < n; i++ {
		schema, rest, err := DecodeSchema(buf)
		if err != nil {
			return nil, err
		}
		if len(rest) < 8 {
			return nil, io.ErrUnexpectedEOF
		}
		lsn := binary.BigEndian.Uint64(rest)
		rows, rest, err := DecodeRows(rest[8:])
		if err != nil {
			return nil, err
		}
		buf = rest
		t, err := st.CreateTable(schema)
		if err != nil {
			return nil, err
		}
		if err := t.checkRows(rows); err != nil {
			return nil, err
		}
		t.mu.Lock()
		t.Rows = rows
		t.publish(nil, nil, lsn)
		t.mu.Unlock()
	}
	return st, nil
}
