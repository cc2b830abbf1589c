package storage

import (
	"bytes"
	"testing"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
)

// snapshotSeed serializes a small two-table store.
func snapshotSeed(t testing.TB) []byte {
	t.Helper()
	st := New(catalog.New())
	for _, schema := range []*catalog.Table{
		{Name: "t", Key: []int{0}, Columns: []catalog.Column{
			{Name: "id", Type: types.Int}, {Name: "name", Type: types.String, Nullable: true},
			{Name: "price", Type: types.Float}, {Name: "day", Type: types.Date}, {Name: "ok", Type: types.Bool}}},
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
// remain — and a store it accepts must serialize again.
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
