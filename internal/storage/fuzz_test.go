package storage_test

import (
	"bytes"
	"testing"

	"orthoq/internal/stats"
	"orthoq/internal/storage"
)

// FuzzSnapshotDecode: the checkpoint body decoder must answer arbitrary
// bytes with an error or a store — never a panic, a hang, or an
// allocation sized by a count it has not checked against the bytes that
// remain — and a store it accepts must hold only rows that fit their
// tables, must serialize again, and must survive what recovery does to
// it next: building every table's indexes and collecting statistics.
// (It is an external test because internal/stats imports storage.)
func FuzzSnapshotDecode(f *testing.F) {
	seed := storage.SnapshotSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // 2^63 tables
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := storage.ReadSnapshot(data)
		if err != nil {
			return
		}
		for _, schema := range st.Catalog.Tables() {
			tbl, _ := st.Table(schema.Name)
			if err := tbl.CheckRows(tbl.AllRows()); err != nil {
				t.Fatalf("accepted snapshot holds a row that does not fit: %v", err)
			}
			tbl.BuildIndexes()
		}
		stats.Collect(st)
		if err := storage.WriteSnapshot(&bytes.Buffer{}, st.Snapshot()); err != nil {
			t.Fatalf("accepted snapshot does not serialize: %v", err)
		}
	})
}
