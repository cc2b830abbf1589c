package orthoq

// Benchmarks regenerating the paper's evaluation (DESIGN.md E1-E7).
// Each benchmark times query *execution* of a pre-compiled plan, the
// quantity the paper's elapsed-time figures report. Run with
//
//	go test -bench=. -benchmem
//
// and see cmd/orthoq-bench for the table/series renderings recorded in
// EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"

	"orthoq/internal/sql/types"
)

const benchSF = 0.005

var (
	benchOnce sync.Once
	benchDB   *DB
)

func benchDBGet(b *testing.B) *DB {
	b.Helper()
	benchOnce.Do(func() {
		db, err := OpenTPCH(benchSF, 1)
		if err != nil {
			panic(err)
		}
		benchDB = db
	})
	return benchDB
}

// benchQuery compiles once and times execution per iteration.
func benchQuery(b *testing.B, sql string, cfg Config) {
	b.Helper()
	db := benchDBGet(b)
	stmt, err := db.Prepare(sql, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// figure1Q is the paper's running example with an unselective
// threshold (the regime where strategy choice matters most).
const figure1Q = `
	select c_custkey from customer
	where 1000 < (select sum(o_totalprice) from orders where o_custkey = c_custkey)`

// flattenedOnly is the Figure-5-era configuration: decorrelation and
// outerjoin simplification but none of the §3 reorderings.
func flattenedOnly() Config {
	return Config{Decorrelate: true, SimplifyOuterJoins: true, CostBased: true, JoinReorder: true}
}

// E1 / Figure 1 — the strategy lattice for Q1.

func BenchmarkFigure1Correlated(b *testing.B) {
	benchQuery(b, figure1Q, Config{})
}

// BenchmarkFigure1CorrelatedPar4 is Figure 1 kept correlated at four
// workers: the Apply runs inside the morsel exchange, each worker over
// the customers of its morsels.
func BenchmarkFigure1CorrelatedPar4(b *testing.B) {
	benchQuery(b, figure1Q, Config{Parallelism: 4})
}

func BenchmarkFigure1OuterjoinAgg(b *testing.B) {
	benchQuery(b, figure1Q, Config{Decorrelate: true})
}

func BenchmarkFigure1JoinAgg(b *testing.B) {
	benchQuery(b, figure1Q, Config{Decorrelate: true, SimplifyOuterJoins: true})
}

func BenchmarkFigure1CostBased(b *testing.B) {
	benchQuery(b, figure1Q, DefaultConfig())
}

// E5 / Figure 9 left — TPC-H Q2 under the technique ladder.

func BenchmarkTPCHQ2Full(b *testing.B) {
	q, _ := TPCHQuery("Q2")
	benchQuery(b, q, DefaultConfig())
}

func BenchmarkTPCHQ2Correlated(b *testing.B) {
	q, _ := TPCHQuery("Q2")
	benchQuery(b, q, Config{CostBased: true, SimplifyOuterJoins: true, JoinReorder: true})
}

func BenchmarkTPCHQ2FlattenBasic(b *testing.B) {
	q, _ := TPCHQuery("Q2")
	benchQuery(b, q, flattenedOnly())
}

// E6 / Figure 9 right — TPC-H Q17 under the technique ladder.

func BenchmarkTPCHQ17Full(b *testing.B) {
	q, _ := TPCHQuery("Q17")
	benchQuery(b, q, DefaultConfig())
}

func BenchmarkTPCHQ17Correlated(b *testing.B) {
	q, _ := TPCHQuery("Q17")
	benchQuery(b, q, Config{CostBased: true, SimplifyOuterJoins: true, JoinReorder: true})
}

func BenchmarkTPCHQ17FlattenBasic(b *testing.B) {
	q, _ := TPCHQuery("Q17")
	benchQuery(b, q, flattenedOnly())
}

func BenchmarkTPCHQ17NoSegmentNoCorrelated(b *testing.B) {
	q, _ := TPCHQuery("Q17")
	cfg := DefaultConfig()
	cfg.SegmentApply = false
	cfg.CorrelatedReintro = false
	benchQuery(b, q, cfg)
}

// E4 / Figure 8 — the remaining benchmark queries under full
// optimization (the per-configuration table lives in orthoq-bench).

func BenchmarkTPCHQ1(b *testing.B)  { benchNamed(b, "Q1") }
func BenchmarkTPCHQ4(b *testing.B)  { benchNamed(b, "Q4") }
func BenchmarkTPCHQ16(b *testing.B) { benchNamed(b, "Q16") }
func BenchmarkTPCHQ18(b *testing.B) { benchNamed(b, "Q18") }
func BenchmarkTPCHQ20(b *testing.B) { benchNamed(b, "Q20") }
func BenchmarkTPCHQ21(b *testing.B) { benchNamed(b, "Q21") }
func BenchmarkTPCHQ22(b *testing.B) { benchNamed(b, "Q22") }

func benchNamed(b *testing.B, name string) {
	b.Helper()
	q, ok := TPCHQuery(name)
	if !ok {
		b.Fatalf("no query %s", name)
	}
	benchQuery(b, q, DefaultConfig())
}

// E7 — ablations: each primitive disabled in isolation, on a query
// where it has a plan to offer (compare against the *Full variants).

func BenchmarkAblationNoDecorrelationQ20(b *testing.B) {
	q, _ := TPCHQuery("Q20")
	benchQuery(b, q, Config{CostBased: true, SimplifyOuterJoins: true, JoinReorder: true})
}

// BenchmarkApplyDistinctBindings times an EXISTS kept correlated whose
// bindings are nearly all distinct (one per order) and whose inner side
// is not an index lookup (the key is an expression), on the correlated
// ladder: the batched Apply's memo cannot pay for itself here, so it
// stops memoizing after its first batch.
func BenchmarkApplyDistinctBindings(b *testing.B) {
	benchQuery(b, applyDistinctQ, Config{CostBased: true, SimplifyOuterJoins: true, JoinReorder: true})
}

// BenchmarkApplyDistinctBindingsPar2 is the same query at two workers:
// the Apply runs inside the morsel exchange, each worker a batched
// Apply over the orders of its morsels.
func BenchmarkApplyDistinctBindingsPar2(b *testing.B) {
	benchQuery(b, applyDistinctQ, Config{CostBased: true, SimplifyOuterJoins: true, JoinReorder: true, Parallelism: 2})
}

const applyDistinctQ = `select o_orderkey from orders o where exists
	(select l_orderkey from lineitem l where l.l_orderkey = o.o_orderkey + 0 and l.l_quantity > 45)`

func BenchmarkAblationNoGroupByReorder(b *testing.B) {
	cfg := DefaultConfig()
	cfg.GroupByReorder = false
	cfg.LocalAgg = false
	cfg.CorrelatedReintro = false
	benchQuery(b, figure1Q, cfg)
}

func BenchmarkAblationNoOJSimplifyQ17(b *testing.B) {
	q, _ := TPCHQuery("Q17")
	cfg := DefaultConfig()
	cfg.SimplifyOuterJoins = false
	cfg.CorrelatedReintro = false
	benchQuery(b, q, cfg)
}

func BenchmarkAblationNoJoinReorderQ2(b *testing.B) {
	q, _ := TPCHQuery("Q2")
	cfg := DefaultConfig()
	cfg.JoinReorder = false
	benchQuery(b, q, cfg)
}

// Morsel-driven parallel execution (serial/par2/par4/par8 per
// workload; speedup over serial requires GOMAXPROCS > 1).

func benchParallel(b *testing.B, sql string) {
	b.Helper()
	for _, par := range []int{0, 2, 4, 8} {
		name := "serial"
		if par > 0 {
			name = fmt.Sprintf("par%d", par)
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Parallelism = par
			benchQuery(b, sql, cfg)
		})
	}
}

func BenchmarkParallelScan(b *testing.B) {
	benchParallel(b, `select l_orderkey, l_extendedprice from lineitem
		where l_quantity > 30 and l_discount > 0.02`)
}

func BenchmarkParallelAgg(b *testing.B) {
	q, _ := TPCHQuery("Q1")
	benchParallel(b, q)
}

func BenchmarkParallelJoin(b *testing.B) {
	benchParallel(b, `select o_orderkey, c_name from orders, customer
		where o_custkey = c_custkey and o_totalprice > 1000`)
}

// Executor micro-workloads: scan+filter, scan+aggregate, hash join.

func benchBatch(b *testing.B, sql string) {
	b.Helper()
	benchQuery(b, sql, DefaultConfig())
}

func BenchmarkBatchScanFilter(b *testing.B) {
	benchBatch(b, `select l_orderkey, l_extendedprice from lineitem
		where l_quantity > 30 and l_discount > 0.02`)
}

func BenchmarkBatchScanAggQ1(b *testing.B) {
	q, _ := TPCHQuery("Q1")
	benchBatch(b, q)
}

func BenchmarkBatchScanAggQ6(b *testing.B) {
	q, _ := TPCHQuery("Q6")
	benchBatch(b, q)
}

func BenchmarkBatchJoin(b *testing.B) {
	benchBatch(b, `select o_orderkey, c_name from orders, customer
		where o_custkey = c_custkey and o_totalprice > 1000`)
}

// BenchmarkBatchScanAggQ18 is a hash GroupBy on integer keys with
// thousands of groups, about Q18's 7 500 (Q18's own aggregation, on
// l_orderkey, streams over the l_orderkey index).
func BenchmarkBatchScanAggQ18(b *testing.B) {
	benchBatch(b, `select l_partkey, l_linenumber, sum(l_quantity) as q
		from lineitem group by l_partkey, l_linenumber`)
}

// BenchmarkBatchStreamAggQ18 is Q18's own aggregation: a streaming
// GroupBy on l_orderkey over the ordered walk of lineitem_pk, about
// 7 500 groups of a few rows.
func BenchmarkBatchStreamAggQ18(b *testing.B) {
	benchBatch(b, `select l_orderkey, sum(l_quantity) as q from lineitem group by l_orderkey`)
}

// BenchmarkBatchJoinSelective is Q20's join shape: a filtered lineitem
// probing a build side of a few rows, so the probe is the whole cost.
func BenchmarkBatchJoinSelective(b *testing.B) {
	benchBatch(b, `select l_orderkey, l_extendedprice from lineitem, supplier
		where l_suppkey = s_suppkey and s_nationkey = 3 and l_shipdate >= date '1994-01-01'`)
}

// BenchmarkSeekUnanalyzed times a seek on a table never analyzed, so
// its hash index covers no row: 200 000 rows of t(id, grp, v) inserted
// through DB.Insert, and `grp = 3` (2 000 matches) as the seek spelling
// beside `grp + 0 = 3`, which binds no index and scans — each serial
// and at four workers (the seek stays serial; the scan runs as a
// morsel-driven exchange).
func BenchmarkSeekUnanalyzed(b *testing.B) {
	db := NewMemory()
	if err := db.CreateTable(&Table{
		Name:    "t",
		Columns: []Column{{Name: "id", Type: types.Int}, {Name: "grp", Type: types.Int}, {Name: "v", Type: types.Float}},
		Key:     []int{0},
		Indexes: []Index{{Name: "t_grp", Cols: []int{1}}},
	}); err != nil {
		b.Fatal(err)
	}
	rows := make([]Row, 200_000)
	for i := range rows {
		rows[i] = Row{types.NewInt(int64(i)), types.NewInt(int64(i % 100)), types.NewFloat(float64(i) / 4)}
	}
	if err := db.Insert("t", rows...); err != nil {
		b.Fatal(err)
	}
	for _, sp := range []struct{ name, where string }{{"seek", "grp = 3"}, {"scan", "grp + 0 = 3"}} {
		for _, par := range []int{0, 4} {
			b.Run(fmt.Sprintf("%s/par%d", sp.name, par), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Parallelism = par
				stmt, err := db.Prepare("select count(*), sum(v) from t where "+sp.where, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := stmt.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Compilation benchmarks: optimizer throughput.

func BenchmarkOptimizeQ2(b *testing.B) {
	db := benchDBGet(b)
	q, _ := TPCHQuery("Q2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Prepare(q, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeQ17(b *testing.B) {
	db := benchDBGet(b)
	q, _ := TPCHQuery("Q17")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Prepare(q, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// warmPassQ1Threshold is the constant of the paper's Q1 in the
// benchmark's analytic workloads (perfbench/answers.go).
const warmPassQ1Threshold = 2000000

// warmPassQueries is the query set of perfbench's warm_analytic
// workload: the 12 TPC-H queries in name order and three spellings of
// the paper's Q1.
func warmPassQueries() []string {
	var qs []string
	for _, name := range TPCHQueryNames() {
		q, _ := TPCHQuery(name)
		qs = append(qs, q)
	}
	return append(qs,
		fmt.Sprintf(`select c_custkey from customer
			where %d < (select sum(o_totalprice) from orders where o_custkey = c_custkey)`, warmPassQ1Threshold),
		fmt.Sprintf(`select c_custkey
			from customer, (select o_custkey, sum(o_totalprice) as total from orders group by o_custkey) as agg
			where o_custkey = c_custkey and %d < total`, warmPassQ1Threshold),
		fmt.Sprintf(`select c_custkey
			from customer left outer join orders on o_custkey = c_custkey
			group by c_custkey having %d < sum(o_totalprice)`, warmPassQ1Threshold))
}

// BenchmarkWarmPass is the in-repo mirror of perfbench's warm_analytic
// workload: one iteration is one pass of the 15 queries through
// QueryCfg with every plan cached, at SF 0.005 — execution dominates,
// so the executor's hot path can be profiled with -cpuprofile from the
// root module.
func BenchmarkWarmPass(b *testing.B) {
	db := benchDBGet(b)
	cfg := DefaultConfig()
	qs := warmPassQueries()
	pass := func() {
		for _, q := range qs {
			if _, err := db.QueryCfg(q, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // fill the plan cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// BenchmarkApplyProbe times the warm-pass queries whose plans look an
// index up per outer row — an Apply over a seek, run as an index-lookup
// probe (Q2, Q4, Q11, Q16, Q18, Q20, Q22) — with their plans cached, at
// SF 0.005: one iteration runs each once.
func BenchmarkApplyProbe(b *testing.B) {
	db := benchDBGet(b)
	cfg := DefaultConfig()
	var qs []string
	for _, name := range []string{"Q2", "Q4", "Q11", "Q16", "Q18", "Q20", "Q22"} {
		q, _ := TPCHQuery(name)
		qs = append(qs, q)
	}
	pass := func() {
		for _, q := range qs {
			if _, err := db.QueryCfg(q, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // fill the plan cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
