package orthoq

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"orthoq/internal/sql/types"
)

// requireColumnsMatchRows holds every column of every stored table, in
// the typed form the scans hand the vector kernels, to a fresh
// conversion of the table's current rows: same kind, same NULLs, same
// payload bits, ending at the same row. Columns the queries built are
// checked as they stand; the rest are built by the check.
func requireColumnsMatchRows(t *testing.T, db *DB) {
	t.Helper()
	for _, schema := range db.store.Catalog.Tables() {
		tbl, _ := db.store.Table(schema.Name)
		v := tbl.Version()
		rows := v.AllRows()
		for ord, c := range schema.Columns {
			var want types.Column
			for _, r := range rows {
				if !want.Append(r[ord]) {
					break
				}
			}
			got := v.Column(ord, 0)
			if got == nil || got.Kind != want.Kind || got.N != want.N {
				t.Fatalf("%s.%s: stored column %+v, fresh conversion has kind %s over %d of %d rows",
					schema.Name, c.Name, got, want.Kind, want.N, len(rows))
			}
			for i := 0; i < want.N; i++ {
				null := got.Null != nil && got.Null[i]
				if wantNull := want.Null != nil && want.Null[i]; null != wantNull {
					t.Fatalf("%s.%s row %d: stored NULL %v, row %v", schema.Name, c.Name, i, null, rows[i][ord])
				}
				same := null
				switch {
				case null:
				case want.Kind == types.Float:
					same = math.Float64bits(got.F[i]) == math.Float64bits(want.F[i])
				case want.Kind == types.String:
					same = got.S[i] == want.S[i]
				default:
					same = got.I[i] == want.I[i]
				}
				if !same {
					t.Fatalf("%s.%s row %d: stored column disagrees with row value %v", schema.Name, c.Name, i, rows[i][ord])
				}
			}
		}
	}
}

// TestStoredColumnsMatchRows checks that the stored columns the scans
// read as views stay equal to their rows: after the TPC-H queries and
// the fuzz corpus ran under every engine variant — no kernel wrote into
// an input vector — and while batches are appended beside readers of
// an old snapshot and of the newest version (run it under -race).
func TestStoredColumnsMatchRows(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		db, err := OpenTPCH(referenceFuzzSF, 11)
		if err != nil {
			t.Fatal(err)
		}
		qs := warmPassQueries()
		if !testing.Short() {
			r := rand.New(rand.NewSource(20010521))
			for i := 0; i < 80; i++ {
				qs = append(qs, randQuery(r))
			}
		}
		for _, v := range referenceVariants {
			cfg := DefaultConfig()
			v.mut(&cfg)
			for i, sql := range qs {
				if v.sorted {
					p, err := db.prepare(sql, cfg.identity())
					if err != nil {
						t.Fatalf("%s query %d: %v", v.name, i, err)
					}
					sorted := *p
					sorted.plan = sortedInputs(p.plan)
					_, err = sorted.execute(db, nil, "bypass", false, runState{cfg: &cfg})
					if err != nil {
						t.Fatalf("%s query %d: %v\nsql: %s", v.name, i, err, sql)
					}
				} else if _, err := db.QueryCfg(sql, cfg); err != nil {
					t.Fatalf("%s query %d: %v\nsql: %s", v.name, i, err, sql)
				}
			}
		}
		requireColumnsMatchRows(t, db)
	})

	t.Run("concurrent-appends", func(t *testing.T) {
		db := NewMemory()
		if err := db.CreateTable(&Table{
			Name: "ev",
			Columns: []Column{
				{Name: "id", Type: types.Int},
				{Name: "v", Type: types.Float, Nullable: true},
				{Name: "tag", Type: types.String},
			},
			Key: []int{0},
		}); err != nil {
			t.Fatal(err)
		}
		const batches, batchSize = 60, 16
		next := 0
		insert := func() {
			rows := make([]Row, batchSize)
			for i := range rows {
				v := types.NewFloat(float64(next%7) / 2)
				if next%5 == 0 {
					v = types.NullUnknown
				}
				rows[i] = Row{types.NewInt(int64(next)), v, types.NewString(fmt.Sprint("t", next%3))}
				next++
			}
			if err := db.Insert("ev", rows...); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 4; i++ {
			insert()
		}
		const q = "select tag, count(*) as n, sum(v) as s from ev where id >= 0 group by tag"
		old := db.Snapshot()
		want, err := db.QuerySnapshot(context.Background(), q, DefaultConfig(), old)
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		var reads atomic.Int64
		stop := make(chan struct{})
		read := func(snap *Snapshot) {
			defer wg.Done()
			for ; ; reads.Add(1) {
				select {
				case <-stop:
					return
				default:
				}
				got, err := db.QuerySnapshot(context.Background(), q, DefaultConfig(), snap)
				if err != nil {
					t.Error(err)
					return
				}
				if snap != nil && !sameBagTolerant(want.Data, got.Data) {
					t.Errorf("snapshot read moved: %v, first read %v", got.Data, want.Data)
					return
				}
			}
		}
		wg.Add(3)
		go read(old)
		go read(nil)
		go read(nil)
		for i := 4; i < batches; i++ {
			insert()
			// Let the readers scan between appends.
			for want := reads.Load() + 3; reads.Load() < want && !t.Failed(); {
				runtime.Gosched()
			}
		}
		close(stop)
		wg.Wait()

		got, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, r := range got.Data {
			n += r[1].Int()
		}
		if n != batches*batchSize {
			t.Fatalf("newest version counts %d rows, want %d", n, batches*batchSize)
		}
		requireColumnsMatchRows(t, db)
	})
}
