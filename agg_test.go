package orthoq

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"orthoq/internal/sql/types"
)

// aggGroupSizes are the group sizes of aggDB's tables: one row, and
// groups that end one row short of, one row past and well past the
// 1024-row batch edge.
var aggGroupSizes = []int{1, 1023, 1025, 3000, 1, 7}

// aggDB holds one relation twice: "ag" with an ordered index on every
// key column, so GROUP BY a key runs as a streaming aggregation over the
// index walk, and "ah" without, so it runs as a hash aggregation. Rows
// are stored in a shuffled order. Group g of aggGroupSizes has
//
//   - a_int 10g, NULL for group 3 (3000 NULL keys);
//   - a_date day 9000+g, NULL for group 0;
//   - a_bool g%2 == 0;
//   - a_str "s0g";
//   - a_flt NaN for group 1 (two payloads, alternating), -0 and 0
//     alternating for group 2, else a number (never NULL: a batch
//     without NULLs runs the typed kernels);
//
// and the aggregate arguments v_i (Int, NULL in every seventh row), v_f
// (Float, NULL in every fifth) and v_s (String).
func aggDB(t *testing.T) *DB {
	t.Helper()
	db := NewMemory()
	for _, name := range []string{"ag", "ah"} {
		tbl := &Table{
			Name: name,
			Columns: []Column{
				{Name: "a_id", Type: types.Int},
				{Name: "a_int", Type: types.Int, Nullable: true},
				{Name: "a_date", Type: types.Date, Nullable: true},
				{Name: "a_bool", Type: types.Bool},
				{Name: "a_str", Type: types.String},
				{Name: "a_flt", Type: types.Float, Nullable: true},
				{Name: "v_i", Type: types.Int, Nullable: true},
				{Name: "v_f", Type: types.Float, Nullable: true},
				{Name: "v_s", Type: types.String},
			},
			Key: []int{0},
		}
		if name == "ag" {
			for c := 1; c <= 5; c++ {
				tbl.Indexes = append(tbl.Indexes, Index{Name: fmt.Sprintf("ag_%d", c), Cols: []int{c}, Ordered: true})
			}
		}
		if err := db.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	var rows []Row
	for g, size := range aggGroupSizes {
		for i := 0; i < size; i++ {
			id := len(rows)
			row := Row{
				types.NewInt(int64(id)),
				types.NewInt(int64(10 * g)),
				types.NewDate(int64(9000 + g)),
				types.NewBool(g%2 == 0),
				types.NewString(fmt.Sprintf("s%02d", g)),
				types.NewFloat(float64(g) - 2.5),
				types.NewInt(int64(id%37 - 11)),
				types.NewFloat(float64(id%101) / 8),
				types.NewString(fmt.Sprintf("v%03d", id%211)),
			}
			switch g {
			case 0:
				row[2] = types.Null(types.Date)
			case 1:
				row[5] = types.NewFloat(math.NaN())
				if i%2 == 1 {
					row[5] = types.NewFloat(math.Float64frombits(0x7ff8000000000001))
				}
			case 2:
				row[5] = types.NewFloat(math.Copysign(0, float64(i%2)*2-1))
			case 3:
				row[1] = types.Null(types.Int)
			}
			if id%7 == 0 {
				row[6] = types.Null(types.Int)
			}
			if id%5 == 0 {
				row[7] = types.Null(types.Float)
			}
			rows = append(rows, row)
		}
	}
	rand.New(rand.NewSource(40)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for _, name := range []string{"ag", "ah"} {
		if err := db.Insert(name, rows...); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	return db
}

// aggList is every aggregate function the executor folds, over Int,
// Float and String arguments with NULLs; the DISTINCT ones over a_flt
// count -0 and 0 as one value, and every NaN as one.
const aggList = `count(*) as n, count(v_i) as ni, sum(v_i) as si, sum(v_f) as sf, avg(v_f) as af,
	min(v_i) as mni, max(v_i) as mxi, min(v_s) as mns, max(v_s) as mxs, min(v_f) as mnf,
	max(v_f) as mxf, count(distinct v_i) as di, count(distinct a_flt) as dfl, sum(distinct a_flt) as sfl`

// TestAggregationMatchesReference holds streaming and hash GroupBy to
// internal/reference over every key kind (Int, Date, Bool, String, a
// Float column with NaN, -0 and 0, NULL keys, and a column mixing Int
// and Float values), groups that cross the batch edge, every aggregate
// function, scalar aggregation over empty input, and Top 1 and Top 5
// over a streaming aggregation — under the default plan, four workers,
// sorted inputs (a Sort under every grouped GroupBy: streaming) and, for
// the hash side, a 16 KiB memory budget that spills.
func TestAggregationMatchesReference(t *testing.T) {
	db := aggDB(t)
	spillDir := t.TempDir()
	o := newOracle([]engineVariant{
		{"default", func(*Config) {}, false},
		{"par4", func(c *Config) { c.Parallelism = 4 }, false},
		{"sorted-inputs", func(*Config) {}, true},
		{"budget16k", func(c *Config) { c.MemBudget = 16 << 10; c.SpillDir = spillDir }, false},
	})
	type aggCase struct{ sql, alg string }
	var cases []aggCase
	for _, key := range []string{"a_int", "a_date", "a_bool", "a_str", "a_flt"} {
		cases = append(cases,
			aggCase{fmt.Sprintf("select %s, %s from ag group by %s", key, aggList, key), "stream"},
			aggCase{fmt.Sprintf("select %s, %s from ah group by %s", key, aggList, key), "hash"})
	}
	cases = append(cases,
		// Two key columns, one of them NULL for a whole group.
		aggCase{"select a_bool, a_int, " + aggList + " from ah group by a_bool, a_int", "hash"},
		// Int and Float values of one key in one column: 10g and 10g+0.0
		// are one group.
		aggCase{`select m, count(*) as n, sum(v_i) as si, min(v_f) as mnf from
			(select case when a_id % 2 = 0 then a_int else a_int + 0.0 end as m, v_i, v_f from ah) x
			group by m`, "hash"},
		// ... and one value to a DISTINCT aggregate.
		aggCase{`select a_bool, count(distinct m) as dm, sum(distinct m) as sm from
			(select a_bool, case when a_id % 2 = 0 then a_int else a_int + 0.0 end as m from ah) x
			group by a_bool`, "hash"},
		// Thousands of groups: the 16 KiB budget spills.
		aggCase{"select v_s, v_i, count(*) as n, sum(v_f) as sf from ah group by v_s, v_i", "hash"},
		// Scalar aggregation over empty input: one row of agg(∅).
		aggCase{"select " + aggList + " from ag where a_id < 0", "stream"},
		aggCase{"select " + aggList + " from ah where v_s = 'none'", "stream"},
		// Top over a streaming aggregation: the row cap reaches it.
		aggCase{"select a_str, count(*) as n, sum(v_i) as si from ag group by a_str order by a_str limit 1", "stream"},
		aggCase{"select a_int, count(*) as n, max(v_f) as mxf from ag group by a_int order by a_int limit 5", "stream"},
	)
	for i, c := range cases {
		plan, err := db.Explain(c.sql, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if streams := strings.Contains(plan, "agg=stream"); streams != (c.alg == "stream") {
			t.Fatalf("case %d: want %s aggregation\n%s", i, c.alg, plan)
		}
		o.check(t, db, fmt.Sprintf("case %d", i), c.sql, DefaultConfig())
	}
	if !o.ran["stream"] {
		t.Error("no sorted-inputs run executed a streaming aggregation")
	}
	expectEmptyDir(t, spillDir, "aggregation")
	cfg := DefaultConfig()
	cfg.MemBudget, cfg.SpillDir = 16<<10, spillDir
	rows, err := db.QueryCfg("select v_s, v_i, count(*) as n, sum(v_f) as sf from ah group by v_s, v_i", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Spills == 0 {
		t.Error("a 16 KiB budget never made the hash aggregation spill")
	}
}

// TestSplitAvgOfInt: the §3.3 split of an avg over an Int column
// returns what the unsplit avg returns — a Float, the Int sum over the
// count — bit for bit, serially (where the search picks the split) and
// on workers, and the reference evaluating the split plan agrees. An
// Int sum over an Int count would divide integrally.
func TestSplitAvgOfInt(t *testing.T) {
	db := sharedDB(t)
	sql := `select o_orderpriority, avg(l_linenumber) as a from orders, lineitem
		where o_orderkey = l_orderkey group by o_orderpriority`
	unsplit := DefaultConfig()
	unsplit.LocalAgg = false
	p, err := db.prepare(sql, unsplit.identity())
	if err != nil {
		t.Fatal(err)
	}
	bits := func(rows []Row) map[string]uint64 {
		m := map[string]uint64{}
		for _, r := range rows {
			f, _ := r[1].AsFloat()
			if r[1].Kind() != types.Float {
				t.Fatalf("avg %v is a %v, want a Float", r[1], r[1].Kind())
			}
			m[r[0].String()] = math.Float64bits(f)
		}
		return m
	}
	want := bits(referenceEval(t, db, p))
	if len(want) == 0 {
		t.Fatal("no groups")
	}
	same := func(label string, got map[string]uint64) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: avg bits %v, want %v", label, got, want)
		}
	}
	for _, par := range []int{0, 2, 4} {
		cfg := DefaultConfig()
		cfg.Parallelism = par
		split, err := db.prepare(sql, cfg.identity())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(split.text, "LGb") {
			t.Fatalf("par=%d: the plan does not split the avg\n%s", par, split.text)
		}
		same(fmt.Sprintf("reference over the split plan at par=%d", par), bits(referenceEval(t, db, split)))
		rows, err := db.QueryCfg(sql, cfg)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("engine at par=%d", par), bits(rows.Data))
	}
}

// parAggList is every aggregate the §3.3 split takes, over Int and
// Float arguments with NULLs.
const parAggList = `count(*) as n, count(v_i) as ni, count(v_f) as nf, sum(v_i) as si, sum(v_f) as sf,
	avg(v_i) as ai, avg(v_f) as af, min(v_i) as mni, max(v_i) as mxi, min(v_f) as mnf, max(v_f) as mxf`

// TestParallelAggregationMatchesReference holds aggregation at two and
// four workers — the §3.3 split around the morsel exchange, each
// worker's LocalGroupBy over its morsels and the global GroupBy over
// their partials — to internal/reference over the plan compiled
// without search, with and without a 16 KiB memory budget: grouped and
// scalar, over aggDB's hash-aggregated table, over a driver whose every
// row is filtered out and over an empty table.
func TestParallelAggregationMatchesReference(t *testing.T) {
	db := aggDB(t)
	err := db.CreateTable(&Table{Name: "ae", Key: []int{0}, Columns: []Column{
		{Name: "a_id", Type: types.Int},
		{Name: "a_int", Type: types.Int, Nullable: true},
		{Name: "v_i", Type: types.Int, Nullable: true},
		{Name: "v_f", Type: types.Float, Nullable: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	spillDir := t.TempDir()
	spilled := false
	for i, sql := range []string{
		"select a_int, " + parAggList + " from ah group by a_int",
		"select a_bool, a_str, " + parAggList + " from ah group by a_bool, a_str",
		// Thousands of groups: the 16 KiB budget spills.
		"select v_s, v_i, " + parAggList + " from ah group by v_s, v_i",
		"select " + parAggList + " from ah",
		"select a_int, " + parAggList + " from ah where v_s = 'none' group by a_int",
		"select " + parAggList + " from ah where v_s = 'none'",
		"select a_int, " + parAggList + " from ae group by a_int",
		"select " + parAggList + " from ae",
	} {
		seed, err := db.prepare(sql, Config{}.identity())
		if err != nil {
			t.Fatal(err)
		}
		want := referenceEval(t, db, seed)
		for _, par := range []int{2, 4} {
			for _, budget := range []int64{0, 16 << 10} {
				label := fmt.Sprintf("case %d par=%d budget=%d", i, par, budget)
				cfg := DefaultConfig()
				cfg.Parallelism, cfg.MemBudget, cfg.SpillDir = par, budget, spillDir
				final, err := db.prepare(sql, cfg.identity())
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(final.text, "LGb") {
					t.Fatalf("%s: the plan does not split the aggregation\n%s", label, final.text)
				}
				if got := referenceEval(t, db, final); !sameBagTolerant(want, got) {
					t.Fatalf("%s: the split changed the answer\nsql: %s\nplan:\n%s\nreference:\n%s\nsplit:\n%s", label, sql,
						final.text, roundedFingerprint(&Rows{Data: want}), roundedFingerprint(&Rows{Data: got}))
				}
				rows, err := db.QueryCfg(sql, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if rows.Workers == 0 {
					t.Fatalf("%s: no worker ran\n%s", label, rows.Plan)
				}
				if !sameBagTolerant(want, rows.Data) {
					t.Fatalf("%s: engine disagrees with the reference\nsql: %s\nplan:\n%s\nreference:\n%s\nengine:\n%s", label, sql,
						rows.Plan, roundedFingerprint(&Rows{Data: want}), roundedFingerprint(rows))
				}
				spilled = spilled || rows.Spills > 0
			}
		}
	}
	if !spilled {
		t.Error("a 16 KiB budget never made a split aggregation spill")
	}
	expectEmptyDir(t, spillDir, "split aggregation")
}
