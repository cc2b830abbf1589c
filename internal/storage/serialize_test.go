package storage

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
)

func TestDatumRoundTrip(t *testing.T) {
	datums := []types.Datum{
		types.NewBool(true),
		types.NewBool(false),
		types.NewInt(0),
		types.NewInt(-1),
		types.NewInt(math.MaxInt64),
		types.NewInt(math.MinInt64),
		types.NewFloat(0),
		types.NewFloat(-3.25),
		types.NewFloat(math.Inf(1)),
		types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(math.Float64frombits(0x7ff8000000000001)), // NaN with a payload
		types.NewDate(0),
		types.NewDate(19234),
		types.NewString(""),
		types.NewString("hello, 世界"),
		types.Null(types.Int),
		types.Null(types.String),
		types.Null(types.Float),
	}
	for _, d := range datums {
		buf := AppendDatum(nil, d)
		got, rest, err := DecodeDatum(buf)
		if err != nil {
			t.Fatalf("DecodeDatum(%v): %v", d, err)
		}
		if len(rest) != 0 {
			t.Errorf("DecodeDatum(%v) left %d trailing bytes", d, len(rest))
		}
		if !reflect.DeepEqual(got, d) {
			t.Errorf("round trip: got %#v, want %#v", got, d)
		}
	}
}

// TestDatumEncodingPinned holds AppendDatum to bytes written before
// Datum kept a float's bits in its integer payload word (and before the
// zero Datum became the untyped NULL): one value and one NULL of every
// kind, a -0, a NaN with a payload, and one row. The WAL and checkpoint
// formats did not move with the in-memory layout, so existing data
// directories still recover. Unknown has no value form.
func TestDatumEncodingPinned(t *testing.T) {
	for _, c := range []struct {
		d    types.Datum
		want []byte
	}{
		{types.NewBool(true), []byte{0x1, 0x1}},
		{types.NewInt(-1234567), []byte{0x2, 0x8d, 0xda, 0x96, 0x1}},
		{types.NewFloat(-3.25), []byte{0x3, 0xc0, 0xa, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}},
		{types.NewFloat(math.Copysign(0, -1)), []byte{0x3, 0x80, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}},
		{types.NewFloat(math.Float64frombits(0x7ff8000000000001)), []byte{0x3, 0x7f, 0xf8, 0x0, 0x0, 0x0, 0x0, 0x0, 0x1}},
		{types.NewString("héllo"), []byte{0x4, 0x6, 0x68, 0xc3, 0xa9, 0x6c, 0x6c, 0x6f}},
		{types.NewDate(9131), []byte{0x5, 0xd6, 0x8e, 0x1}},
		{types.NullUnknown, []byte{0x80}},
		{types.Null(types.Bool), []byte{0x81}},
		{types.Null(types.Int), []byte{0x82}},
		{types.Null(types.Float), []byte{0x83}},
		{types.Null(types.String), []byte{0x84}},
		{types.Null(types.Date), []byte{0x85}},
	} {
		if got := AppendDatum(nil, c.d); !bytes.Equal(got, c.want) {
			t.Errorf("AppendDatum(%v) = %#v, want %#v", c.d, got, c.want)
		}
	}
	row := types.Row{types.NewInt(7), types.NewString("x"), types.NewFloat(1.5), types.Null(types.Float), types.NewDate(9131), types.NewBool(false)}
	want := []byte{0x6, 0x2, 0xe, 0x4, 0x1, 0x78, 0x3, 0x3f, 0xf8, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x83, 0x5, 0xd6, 0x8e, 0x1, 0x1, 0x0}
	if got := AppendRow(nil, row); !bytes.Equal(got, want) {
		t.Errorf("AppendRow(%v) = %#v, want %#v", row, got, want)
	}
}

func TestDatumDecodeTruncated(t *testing.T) {
	full := AppendDatum(nil, types.NewString("truncate me"))
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeDatum(full[:cut]); err == nil {
			t.Errorf("DecodeDatum accepted a %d/%d-byte prefix", cut, len(full))
		}
	}
}

func TestRowsRoundTrip(t *testing.T) {
	rows := []types.Row{
		{types.NewInt(1), types.NewString("a"), types.Null(types.Float)},
		{types.NewInt(2), types.NewString(""), types.NewFloat(2.5)},
		{}, // empty row
	}
	buf := AppendRows(nil, rows)
	got, rest, err := DecodeRows(buf)
	if err != nil {
		t.Fatalf("DecodeRows: %v", err)
	}
	if len(rest) != 0 {
		t.Errorf("DecodeRows left %d trailing bytes", len(rest))
	}
	if len(got) != len(rows) {
		t.Fatalf("DecodeRows returned %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if len(got[i]) != len(rows[i]) {
			t.Errorf("row %d: %d datums, want %d", i, len(got[i]), len(rows[i]))
			continue
		}
		if !reflect.DeepEqual(append(types.Row{}, got[i]...), append(types.Row{}, rows[i]...)) {
			t.Errorf("row %d: got %v, want %v", i, got[i], rows[i])
		}
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	schema := &catalog.Table{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_orderkey", Type: types.Int},
			{Name: "o_comment", Type: types.String, Nullable: true},
		},
		Key: []int{0},
		Indexes: []catalog.Index{
			{Name: "pk", Cols: []int{0}, Unique: true, Ordered: true},
		},
	}
	buf, err := AppendSchema(nil, schema)
	if err != nil {
		t.Fatalf("AppendSchema: %v", err)
	}
	got, rest, err := DecodeSchema(buf)
	if err != nil {
		t.Fatalf("DecodeSchema: %v", err)
	}
	if len(rest) != 0 {
		t.Errorf("DecodeSchema left %d trailing bytes", len(rest))
	}
	if !reflect.DeepEqual(got, schema) {
		t.Errorf("schema round trip: got %+v, want %+v", got, schema)
	}
}

// A snapshot written and read back reproduces every table's schema,
// rows, and publication LSN.
func TestSnapshotRoundTrip(t *testing.T) {
	st := New(catalog.New())
	mk := func(name string, lsn uint64, rows ...types.Row) {
		tbl, err := st.CreateTable(&catalog.Table{
			Name: name,
			Columns: []catalog.Column{
				{Name: "id", Type: types.Int},
				{Name: "s", Type: types.String, Nullable: true},
			},
			Key: []int{0},
		})
		if err != nil {
			t.Fatalf("CreateTable(%s): %v", name, err)
		}
		if err := tbl.InsertAll(rows); err != nil {
			t.Fatalf("InsertAll(%s): %v", name, err)
		}
		tbl.mu.Lock()
		tbl.publish(nil, nil, lsn)
		tbl.mu.Unlock()
	}
	mk("a", 7, types.Row{types.NewInt(1), types.NewString("x")})
	mk("b", 9,
		types.Row{types.NewInt(1), types.Null(types.String)},
		types.Row{types.NewInt(2), types.NewString("y")})

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, st.Snapshot()); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	for name, wantLSN := range map[string]uint64{"a": 7, "b": 9} {
		src, _ := st.Table(name)
		dst, ok := got.Table(name)
		if !ok {
			t.Fatalf("table %s missing after round trip", name)
		}
		if dst.Version().LSN() != wantLSN {
			t.Errorf("table %s LSN = %d, want %d", name, dst.Version().LSN(), wantLSN)
		}
		if !reflect.DeepEqual(dst.AllRows(), src.AllRows()) {
			t.Errorf("table %s rows differ after round trip", name)
		}
		if !reflect.DeepEqual(dst.Schema, src.Schema) {
			t.Errorf("table %s schema differs after round trip", name)
		}
	}
}

// ReadSnapshot rejects truncation anywhere in the stream.
func TestSnapshotTruncated(t *testing.T) {
	st := New(catalog.New())
	tbl, err := st.CreateTable(&catalog.Table{
		Name:    "t",
		Columns: []catalog.Column{{Name: "id", Type: types.Int}},
		Key:     []int{0},
	})
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := tbl.InsertAll([]types.Row{{types.NewInt(1)}, {types.NewInt(2)}}); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, st.Snapshot()); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := ReadSnapshot(full[:cut]); err == nil {
			t.Errorf("ReadSnapshot accepted a %d/%d-byte prefix", cut, len(full))
		}
	}
}

// seedTable is the five-column table of the fuzz seed: one column of
// each kind, one of them nullable, with a hash and an ordered index for
// recovery's BuildIndexes to build.
func seedTable() *catalog.Table {
	return &catalog.Table{Name: "t", Key: []int{0}, Columns: []catalog.Column{
		{Name: "id", Type: types.Int}, {Name: "name", Type: types.String, Nullable: true},
		{Name: "price", Type: types.Float}, {Name: "day", Type: types.Date}, {Name: "ok", Type: types.Bool}},
		Indexes: []catalog.Index{{Name: "t_name", Cols: []int{1}}, {Name: "t_day", Cols: []int{3, 2}, Ordered: true}}}
}

// snapshotSeed serializes a small two-table store.
func snapshotSeed(t testing.TB) []byte {
	t.Helper()
	st := New(catalog.New())
	for _, schema := range []*catalog.Table{
		seedTable(),
		{Name: "empty", Key: []int{0}, Columns: []catalog.Column{{Name: "k", Type: types.Int}}},
	} {
		if _, err := st.CreateTable(schema); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := st.Table("t")
	if err := tbl.InsertAll([]types.Row{
		{types.NewInt(1), types.NewString("one"), types.NewFloat(1.5), types.MustDate("1995-01-01"), types.NewBool(true)},
		{types.NewInt(2), types.Null(types.String), types.NewFloat(-2), types.MustDate("1998-12-31"), types.NewBool(false)},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, st.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeRejectsUnbackedCounts: a row or batch count larger than the
// bytes that follow is rejected before anything is allocated for it.
func TestDecodeRejectsUnbackedCounts(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^56-1
	if _, _, err := DecodeRow(huge); err == nil {
		t.Error("DecodeRow accepted a 2^56-column row with no data")
	}
	if _, _, err := DecodeRows(huge); err == nil {
		t.Error("DecodeRows accepted a 2^56-row batch with no data")
	}
}

// TestReadSnapshotRejectsRowsThatDoNotFitSchema: a checkpoint whose
// bytes decode but whose rows do not fit their table — the wrong width,
// a value of a kind the column cannot hold, a NULL in a non-nullable
// column — is rejected at load instead of published to the executor.
func TestReadSnapshotRejectsRowsThatDoNotFitSchema(t *testing.T) {
	good := types.Row{types.NewInt(1), types.NewString("one"), types.NewFloat(1.5), types.MustDate("1995-01-01"), types.NewBool(true)}
	for _, c := range []struct {
		name string
		row  types.Row
	}{
		{"two columns", types.Row{types.NewInt(1), types.NewString("one")}},
		{"string in a float column", append(good[:2:2], types.NewString("1.5"), good[3], good[4])},
		{"NULL in a non-nullable column", append(types.Row{types.Null(types.Int)}, good[1:]...)},
	} {
		st := New(catalog.New())
		tbl, err := st.CreateTable(seedTable())
		if err != nil {
			t.Fatal(err)
		}
		// Write the row as a corrupt writer would: past checkRow.
		tbl.mu.Lock()
		tbl.Rows = []types.Row{good, c.row}
		tbl.publish(nil, nil, 1)
		tbl.mu.Unlock()
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, st.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(buf.Bytes()); err == nil {
			t.Errorf("%s: ReadSnapshot accepted the row", c.name)
		}
	}
}
