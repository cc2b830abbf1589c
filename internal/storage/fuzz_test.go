package storage

import (
	"bytes"
	"testing"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
)

// seedTable is the five-column table of the fuzz seed: one column of
// each kind, one of them nullable.
func seedTable() *catalog.Table {
	return &catalog.Table{Name: "t", Key: []int{0}, Columns: []catalog.Column{
		{Name: "id", Type: types.Int}, {Name: "name", Type: types.String, Nullable: true},
		{Name: "price", Type: types.Float}, {Name: "day", Type: types.Date}, {Name: "ok", Type: types.Bool}}}
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

// FuzzSnapshotDecode: the checkpoint body decoder must answer arbitrary
// bytes with an error or a store — never a panic, a hang, or an
// allocation sized by a count it has not checked against the bytes that
// remain — and a store it accepts must hold only rows that fit their
// tables and must serialize again.
func FuzzSnapshotDecode(f *testing.F) {
	seed := snapshotSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // 2^63 tables
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadSnapshot(data)
		if err != nil {
			return
		}
		for _, schema := range st.Catalog.Tables() {
			tbl, _ := st.Table(schema.Name)
			if err := tbl.checkRows(tbl.AllRows()); err != nil {
				t.Fatalf("accepted snapshot holds a row that does not fit: %v", err)
			}
		}
		if err := WriteSnapshot(&bytes.Buffer{}, st.Snapshot()); err != nil {
			t.Fatalf("accepted snapshot does not serialize: %v", err)
		}
	})
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
