package orthoq

// End-to-end property tests for morsel-driven parallel execution:
// for every TPC-H benchmark query and the random subquery corpus,
// Parallelism ∈ {2, 4, 8} must return the same bag of rows as serial
// execution. Row order may differ, and float aggregates may differ by
// ulp-scale rounding noise (partial sums accumulate in
// morsel-assignment order), so rows are matched order-insensitively
// with a small relative tolerance on numeric values.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/exec"
)

// approxEqualDatum compares two result values with relative tolerance
// for numerics (parallel float summation is not bit-reproducible).
func approxEqualDatum(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	if a.Kind().Numeric() && b.Kind().Numeric() {
		fa, _ := a.AsFloat()
		fb, _ := b.AsFloat()
		if fa != fa || fb != fb {
			return fa != fa && fb != fb // a NaN equals a NaN, as types.Compare says
		}
		diff := fa - fb
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if fa > scale {
			scale = fa
		}
		if -fa > scale {
			scale = -fa
		}
		return diff <= 1e-6*scale
	}
	return a.String() == b.String()
}

func approxEqualRow(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !approxEqualDatum(a[i], b[i]) {
			return false
		}
	}
	return true
}

func checkParallelAgainstSerial(t *testing.T, db *DB, label, sql string, cfg Config) {
	t.Helper()
	serialRows, err := db.QueryCfg(sql, cfg)
	if err != nil {
		t.Fatalf("%s serial: %v\nsql: %s", label, err, sql)
	}
	for _, par := range []int{2, 4, 8} {
		pcfg := cfg
		pcfg.Parallelism = par
		rows, err := db.QueryCfg(sql, pcfg)
		if err != nil {
			t.Fatalf("%s par=%d: %v\nsql: %s", label, par, err, sql)
		}
		if !sameBagTolerant(serialRows.Data, rows.Data) {
			t.Fatalf("%s par=%d disagrees with serial\nsql: %s\nserial:\n%s\nparallel:\n%s",
				label, par, sql, roundedFingerprint(serialRows), roundedFingerprint(rows))
		}
	}
}

func TestParallelTPCHMatchesSerial(t *testing.T) {
	db := sharedDB(t)
	cfg := DefaultConfig()
	for _, name := range TPCHQueryNames() {
		sql, ok := TPCHQuery(name)
		if !ok {
			t.Fatalf("missing query %s", name)
		}
		checkParallelAgainstSerial(t, db, name, sql, cfg)
	}
}

func TestParallelFuzzCorpusMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	db := sharedDB(t)
	cfg := DefaultConfig()
	r := rand.New(rand.NewSource(20010521))
	for i := 0; i < 120; i++ {
		checkParallelAgainstSerial(t, db, "fuzz", randQuery(r), cfg)
	}
}

// TestParallelAnalyzeTrace checks that EXPLAIN ANALYZE surfaces the
// exchange's worker and morsel counts.
func TestParallelAnalyzeTrace(t *testing.T) {
	db := sharedDB(t)
	sql, _ := TPCHQuery("Q1")
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	rows, err := db.QueryAnalyze(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rows.Trace, "workers=4") {
		t.Fatalf("trace missing workers=4:\n%s", rows.Trace)
	}
}

// TestExchangeOpenTimed: the time workers spend shows in their
// exchange's time, not in an operator above it. Q15 at two workers and
// SF 0.01 runs its top exchange as one worker on the consumer's strand,
// whose Open builds two hash aggregations under the worker's own trace
// clock; Q1 and Q4 run their LocalGroupBy on two workers while the
// global GroupBy above waits for the partials. Each exchange's time=
// must cover at least half its workertime=, and the Sort's self= over
// Q1's and Q4's must be less than the exchange's time=.
func TestExchangeOpenTimed(t *testing.T) {
	db, err := OpenTPCH(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Q15", "Q1", "Q4"} {
		sql, _ := TPCHQuery(name)
		cfg := DefaultConfig()
		cfg.Parallelism = 2
		rows, err := db.QueryAnalyze(sql, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var exchange, sort *Span
		for _, sp := range collectSpans(rows) {
			if sp.Op == "Sort" && sort == nil {
				sort = sp
			}
			if sp.Workers == 0 || sp.WorkerTime == 0 {
				continue
			}
			exchange = sp
			if 2*sp.Busy < sp.WorkerTime {
				t.Errorf("%s: %s exchange: time=%v covers less than half its workertime=%v\n%s",
					name, sp.Op, sp.Busy, sp.WorkerTime, rows.Trace)
			}
		}
		if exchange == nil {
			t.Fatalf("%s: no exchange in\n%s", name, rows.Trace)
		}
		if name != "Q15" && (sort == nil || sort.Self >= exchange.Busy) {
			t.Errorf("%s: the Sort's self time is not below the exchange's time=%v\n%s", name, exchange.Busy, rows.Trace)
		}
	}
}

var updateParallelPlans = flag.Bool("update-parallel-plans", false, "rewrite "+parallelPlansPath)

const parallelPlansPath = "testdata/parallel_plans.golden"

// TestParallelPlansGolden pins the plans of the 12 TPC-H queries at four
// workers on sharedDB as EXPLAIN ends on them: est= and cost= on every
// operator, each exchange included. A change that means to move an
// exchange regenerates the file with -update-parallel-plans and says
// why.
func TestParallelPlansGolden(t *testing.T) {
	db := sharedDB(t)
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	var b strings.Builder
	b.WriteString("# The 12 TPC-H queries at Parallelism 4, SF 0.002: EXPLAIN's final plan.\n")
	b.WriteString("# Regenerate with: go test -run TestParallelPlansGolden -update-parallel-plans .\n")
	for _, name := range TPCHQueryNames() {
		sql, _ := TPCHQuery(name)
		out, err := db.Explain(sql, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body := out[:strings.LastIndex(out, "\nresult cache:")]
		fmt.Fprintf(&b, "=== %s\n%s\n", name, body[strings.LastIndex(body, "\n=== ")+1:])
	}
	if *updateParallelPlans {
		if err := os.WriteFile(parallelPlansPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(parallelPlansPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("the plans at four workers moved; diff against %s:\n%s", parallelPlansPath, got)
	}
}

// TestExchangePlacement holds every plan compiled at two and four
// workers, cost-based and without a search, over the TPC-H queries and
// the reference fuzz corpus, to the exchange's invariants: StreamDriver
// finds the driver of each exchange's input, no exchange nests, only
// Sort, Project, Select and GroupBy read one, and the plan returns what
// internal/reference returns for the seed plan.
func TestExchangePlacement(t *testing.T) {
	searchless := DefaultConfig()
	searchless.CostBased = false
	check := func(t *testing.T, db *DB, label, sql string) (exchanges int) {
		t.Helper()
		seed, err := db.prepare(sql, Config{}.identity())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := referenceEval(t, db, seed)
		for _, base := range []Config{DefaultConfig(), searchless} {
			for _, par := range []int{2, 4} {
				cfg := base
				cfg.Parallelism = par
				p, err := db.prepare(sql, cfg.identity())
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var walk func(r algebra.Rel, above []algebra.Rel)
				walk = func(r algebra.Rel, above []algebra.Rel) {
					if x, ok := r.(*algebra.Exchange); ok {
						exchanges++
						if _, ok := exec.StreamDriver(db.store.Catalog.Table, x.Input); !ok {
							t.Errorf("%s par=%d: an exchange's input has no stream driver\n%s", label, par, p.text)
						}
						algebra.VisitRel(x.Input, func(n algebra.Rel) bool {
							if _, nested := n.(*algebra.Exchange); nested {
								t.Errorf("%s par=%d: an exchange nests\n%s", label, par, p.text)
							}
							return true
						})
						for _, a := range above {
							switch a.(type) {
							case *algebra.Sort, *algebra.Project, *algebra.Select, *algebra.GroupBy:
							default:
								t.Errorf("%s par=%d: a %T reads an exchange\n%s", label, par, a, p.text)
							}
						}
					}
					for _, in := range r.Inputs() {
						walk(in, append(above, r))
					}
				}
				walk(p.plan, nil)
				if got := referenceEval(t, db, p); !sameBagTolerant(want, got) {
					t.Fatalf("%s par=%d: reference(plan) ≠ reference(seed)\nsql: %s\nplan:\n%s", label, par, sql, p.text)
				}
			}
		}
		return exchanges
	}
	t.Run("tpch", func(t *testing.T) {
		db, exchanges := sharedDB(t), 0
		for _, name := range TPCHQueryNames() {
			sql, _ := TPCHQuery(name)
			exchanges += check(t, db, name, sql)
		}
		if exchanges == 0 {
			t.Error("no TPC-H plan has an exchange")
		}
	})
	t.Run("fuzz", func(t *testing.T) {
		if testing.Short() {
			t.Skip("short mode")
		}
		db, err := OpenTPCH(referenceFuzzSF, 11)
		if err != nil {
			t.Fatal(err)
		}
		r, exchanges := rand.New(rand.NewSource(20010521)), 0
		for i := 0; i < 80; i++ {
			exchanges += check(t, db, fmt.Sprintf("fuzz %d", i), randQuery(r))
		}
		if exchanges == 0 {
			t.Error("no fuzz plan has an exchange")
		}
	})
}
