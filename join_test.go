package orthoq

import (
	"fmt"
	"strings"
	"testing"

	"orthoq/internal/obs"
	"orthoq/internal/sql/types"
)

// joinEdgeDB holds the tables of TestHashJoinEdgeCases: a build side
// whose keys repeat across batches and include NULLs (bld), a probe
// side that matches three keys in four (prb), a probe side whose keys
// are all NULL (nulls), an empty table (empty), and a build side of one
// key (skew), which no spill level can split.
func joinEdgeDB(t *testing.T) *DB {
	t.Helper()
	db := NewMemory()
	for _, name := range []string{"bld", "prb", "nulls", "empty", "skew"} {
		p := name[:1]
		if err := db.CreateTable(&Table{
			Name: name,
			Columns: []Column{
				{Name: p + "_id", Type: types.Int},
				{Name: p + "_key", Type: types.Int, Nullable: true},
				{Name: p + "_val", Type: types.String},
			},
			Key: []int{0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	null := types.Null(types.Int)
	insert := func(table string, n int, key func(i int) types.Datum) {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{types.NewInt(int64(i)), key(i), types.NewString(fmt.Sprintf("%s%d", table, i%13))}
		}
		if err := db.Insert(table, rows...); err != nil {
			t.Fatal(err)
		}
	}
	// A key's five rows lie 300 apart, so most keys have rows in two
	// 1024-row batches of the build.
	insert("bld", 1500, func(i int) types.Datum {
		if i%97 == 0 {
			return null
		}
		return types.NewInt(int64(i % 300))
	})
	insert("prb", 1200, func(i int) types.Datum {
		if i%31 == 0 {
			return null
		}
		return types.NewInt(int64(i % 400))
	})
	insert("nulls", 700, func(int) types.Datum { return null })
	insert("skew", 600, func(int) types.Datum { return types.NewInt(1) })
	db.Analyze()
	return db
}

// TestHashJoinEdgeCases holds hash joins to internal/reference where
// the build side is empty, where every probe key is NULL, where a key's
// build rows span batches, and where every build row has one key,
// serially, with a build shared by four workers, and with a memory
// budget that sends the build to Grace partitions (the one-key build
// down to the last spill level). It also checks that the parallel and
// budgeted runs did what they are there for: a join under a four-worker
// exchange, and a spill.
func TestHashJoinEdgeCases(t *testing.T) {
	db := joinEdgeDB(t)
	spillDir := t.TempDir()
	variants := []engineVariant{
		{"default", func(*Config) {}, false},
		{"par4", func(c *Config) { c.Parallelism = 4 }, false},
		{"grace", func(c *Config) { c.MemBudget = 16 << 10; c.SpillDir = spillDir }, false},
	}
	queries := []string{
		// Duplicate build keys spanning batches, NULLs on both sides.
		`select p_id, b_id, b_val from prb, bld where p_key = b_key`,
		`select p_id, b_id from prb left outer join bld on p_key = b_key`,
		`select p_id from prb where exists (select * from bld where b_key = p_key)`,
		`select p_id from prb where not exists (select * from bld where b_key = p_key)`,
		`select b_key, count(*) from prb, bld where p_key = b_key and b_val <> p_val group by b_key`,
		// An empty build side.
		`select p_id, e_id from prb left outer join empty on p_key = e_key`,
		`select p_id from prb where not exists (select * from empty where e_key = p_key)`,
		`select p_id from prb where exists (select * from empty where e_key = p_key)`,
		// Every probe key NULL.
		`select n_id, b_id from nulls left outer join bld on n_key = b_key`,
		`select n_id from nulls where not exists (select * from bld where b_key = n_key)`,
		`select n_id from nulls where exists (select * from bld where b_key = n_key)`,
		`select n_id, b_id from nulls, bld where n_key = b_key`,
		// One build key: no level of partitions splits it.
		`select p_id, s_id from prb left outer join skew on p_key = s_key`,
		`select p_id from prb where not exists (select * from skew where s_key = p_key)`,
	}
	o := newOracle(variants)
	for i, sql := range queries {
		o.check(t, db, fmt.Sprintf("join %d", i), sql, DefaultConfig())
	}

	parallelJoin, spills := false, int64(0)
	for _, sql := range queries {
		cfg := DefaultConfig()
		cfg.Parallelism = 4
		cfg.Trace = true
		rows, err := db.QueryCfg(sql, cfg)
		if err != nil {
			t.Fatal(err)
		}
		parallelJoin = parallelJoin || joinUnderWorkers(rows.Spans(), false)

		cfg = DefaultConfig()
		cfg.MemBudget, cfg.SpillDir = 16<<10, spillDir
		if rows, err = db.QueryCfg(sql, cfg); err != nil {
			t.Fatal(err)
		}
		spills += rows.Spills
		expectEmptyDir(t, spillDir, sql)
	}
	if !parallelJoin {
		t.Error("no query ran a join under a four-worker exchange")
	}
	if spills == 0 {
		t.Error("a 16 KiB budget never made a join spill")
	}
}

// TestEmptyBuildSkipsProbe: an inner or semi join whose build side
// comes out empty answers without reading its probe side. Q21's
// supplier-side builds are empty on the shared store (no SAUDI ARABIA
// supplier): every join span whose build produced no row has a probe
// side that never opened and produced nothing, and the answer is the
// oracle's under every variant. A left outer and an anti join over an
// empty build still return every probe row.
func TestEmptyBuildSkipsProbe(t *testing.T) {
	db := sharedDB(t)
	sql, _ := TPCHQuery("Q21")
	newOracle(referenceVariants).check(t, db, "Q21", sql, DefaultConfig())
	rows, err := db.QueryAnalyze(sql, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, sp := range collectSpans(rows) {
		if sp.Op != "Join" || len(sp.Children) != 2 {
			continue
		}
		probe, build := sp.Children[0], sp.Children[1]
		if build.Opens == 0 || build.Rows > 0 {
			continue
		}
		skipped++
		if probe.Opens != 0 || probe.Rows != 0 {
			t.Errorf("a join over an empty build read its probe side (opens=%d rows=%d)\n%s",
				probe.Opens, probe.Rows, rows.Trace)
		}
	}
	if skipped == 0 {
		t.Fatalf("no join of Q21 saw an empty build\n%s", rows.Trace)
	}

	edge := joinEdgeDB(t)
	all, err := edge.Query(`select p_id from prb`)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`select p_id, e_id from prb left outer join empty on p_key = e_key`,
		`select p_id from prb where not exists (select * from empty where e_key = p_key)`,
	} {
		got, err := edge.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != len(all.Data) {
			t.Errorf("%d rows of %d probe rows: %s", len(got.Data), len(all.Data), sql)
		}
	}
}

// joinUnderWorkers reports whether a join span sits below a parallel
// exchange that ran more than one worker.
func joinUnderWorkers(s *obs.Span, parallel bool) bool {
	if s == nil {
		return false
	}
	if parallel && strings.Contains(s.Op, "Join") {
		return true
	}
	parallel = parallel || s.Workers > 1
	for _, c := range s.Children {
		if joinUnderWorkers(c, parallel) {
			return true
		}
	}
	return false
}
