package storage

import (
	"sync"
	"testing"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
)

func TestVersionPinning(t *testing.T) {
	tbl := newTestTable(t, 10)
	v := tbl.Version()
	if v.RowCount() != 10 {
		t.Fatalf("version rows = %d, want 10", v.RowCount())
	}
	if err := tbl.Insert(types.Row{types.NewInt(100), types.NewInt(0), types.NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	if v.RowCount() != 10 {
		t.Errorf("pinned version grew to %d rows", v.RowCount())
	}
	if tbl.Version().RowCount() != 11 {
		t.Errorf("current version = %d rows, want 11", tbl.Version().RowCount())
	}
}

func TestSnapshotPinsAllTables(t *testing.T) {
	st := New(catalog.New())
	tbl, err := st.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	tbl.Insert(types.Row{types.NewInt(1), types.NewInt(0), types.NewFloat(0)})
	sn := st.Snapshot()

	tbl.Insert(types.Row{types.NewInt(2), types.NewInt(0), types.NewFloat(0)})
	other := &catalog.Table{Name: "after", Columns: []catalog.Column{{Name: "x", Type: types.Int}}, Key: []int{0}}
	if _, err := st.CreateTable(other); err != nil {
		t.Fatal(err)
	}

	v, ok := sn.Table("t")
	if !ok || v.RowCount() != 1 {
		t.Errorf("snapshot sees %d rows in t, want 1", v.RowCount())
	}
	if _, ok := sn.Table("after"); ok {
		t.Error("snapshot sees a table created after it was taken")
	}
	if got := tbl.Version().RowCount(); got != 2 {
		t.Errorf("live version = %d rows, want 2", got)
	}
}

func TestInsertAllAtomicPublication(t *testing.T) {
	// An invalid row anywhere in the batch publishes nothing.
	tbl := newTestTable(t, 5)
	batch := []types.Row{
		{types.NewInt(50), types.NewInt(0), types.NewFloat(0)},
		{types.NewString("bad"), types.NewInt(0), types.NewFloat(0)},
	}
	if err := tbl.InsertAll(batch); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if got := tbl.Version().RowCount(); got != 5 {
		t.Errorf("failed batch published rows: %d, want 5", got)
	}
}

func TestIndexStalenessPreserved(t *testing.T) {
	// Rows inserted after BuildIndexes are visible to scans, and lie
	// past the index's coverage — a lookup reports the coverage and
	// answers none of them — and an ordered index's permutation is
	// stale — not served — until the next BuildIndexes.
	tbl := newTestTable(t, 10)
	tbl.Insert(types.Row{types.NewInt(200), types.NewInt(3), types.NewFloat(0)})
	v := tbl.Version()
	if v.RowCount() != 11 {
		t.Fatalf("scan sees %d rows, want 11", v.RowCount())
	}
	if got, covered := v.Lookup("t_pk", []types.Datum{types.NewInt(200)}, nil); len(got) != 0 || covered != 10 {
		t.Errorf("lookup of the unindexed row: %v covering %d, want [] covering 10", got, covered)
	}
	if got := seek(v, "t_pk", []types.Datum{types.NewInt(200)}, nil); len(got) != 1 || got[0] != 10 {
		t.Errorf("lookup plus a scan past its coverage: %v, want [10]", got)
	}
	if _, ok := v.OrderedScan("t_pk"); ok {
		t.Error("stale permutation served")
	}
	tbl.BuildIndexes()
	if got, covered := tbl.Version().Lookup("t_pk", []types.Datum{types.NewInt(200)}, nil); len(got) != 1 || covered != 11 {
		t.Errorf("after BuildIndexes lookup found %d rows covering %d, want 1 covering 11", len(got), covered)
	}
	if perm, ok := tbl.Version().OrderedScan("t_pk"); !ok || len(perm) != 11 {
		t.Errorf("after BuildIndexes permutation %v, %v", perm, ok)
	}
}

func TestConcurrentInsertAndSnapshot(t *testing.T) {
	// Batches publish all-or-nothing: every snapshot's row count is a
	// multiple of the batch size. Run with -race.
	st := New(catalog.New())
	tbl, err := st.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches, batchSize = 4, 25, 8
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := st.Snapshot()
			v, _ := sn.Table("t")
			if n := v.RowCount(); n%batchSize != 0 {
				t.Errorf("torn publication: snapshot sees %d rows (not a multiple of %d)", n, batchSize)
				return
			}
		}
	}()
	var writersWg sync.WaitGroup
	var next int64
	var idMu sync.Mutex
	for w := 0; w < writers; w++ {
		writersWg.Add(1)
		go func() {
			defer writersWg.Done()
			for b := 0; b < batches; b++ {
				idMu.Lock()
				base := next
				next += batchSize
				idMu.Unlock()
				rows := make([]types.Row, batchSize)
				for i := range rows {
					rows[i] = types.Row{types.NewInt(base + int64(i)), types.NewInt(0), types.NewFloat(0)}
				}
				if err := tbl.InsertAll(rows); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writersWg.Wait()
	close(stop)
	<-readerDone
	if got := tbl.Version().RowCount(); got != writers*batches*batchSize {
		t.Errorf("final rows = %d, want %d", got, writers*batches*batchSize)
	}
}
