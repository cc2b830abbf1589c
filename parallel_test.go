package orthoq

// End-to-end property tests for morsel-driven parallel execution:
// for every TPC-H benchmark query and the random subquery corpus,
// Parallelism ∈ {2, 4, 8} must return the same bag of rows as serial
// execution. Row order may differ, and float aggregates may differ by
// ulp-scale rounding noise (partial sums accumulate in
// morsel-assignment order), so rows are matched order-insensitively
// with a small relative tolerance on numeric values.

import (
	"math/rand"
	"strings"
	"testing"
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
