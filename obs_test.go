package orthoq

// End-to-end tests of the observability layer: per-operator span
// trees (timing algebra, cross-execution-path count identity), the
// engine metrics registry (delta assertions for every counter under
// fault injection), the JSONL query log, and the expvar hookup.

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"orthoq/internal/exec/faultinject"
	"orthoq/internal/obs"
)

// flattenSpans renders a span tree one line per node with rows and
// opens, for exact cross-path comparison.
func flattenSpans(sp *obs.Span) string {
	var b strings.Builder
	var walk func(s *obs.Span, depth int)
	walk = func(s *obs.Span, depth int) {
		fmt.Fprintf(&b, "%*s%s rows=%d opens=%d\n", depth*2, "", s.Op, s.Rows, s.Opens)
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(sp, 0)
	return b.String()
}

// TestSpanTreeInvariants: the timing algebra holds on every traced
// benchmark query — Self within [0, Busy] at every node, inclusive
// parent time covering the children (except across a parallel
// boundary, where children are measured in cumulative worker time),
// and the root span's row count matching the result.
func TestSpanTreeInvariants(t *testing.T) {
	db := sharedDB(t)
	cfg := DefaultConfig()
	cfg.Trace = true
	for i, name := range TPCHQueryNames() {
		sql, _ := TPCHQuery(name)
		c := cfg
		if i%2 == 1 {
			c.Parallelism = 4
		}
		rows, err := db.QueryCfg(sql, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp := rows.Spans()
		if sp == nil {
			t.Fatalf("%s: traced run returned nil Spans", name)
		}
		if sp.Rows != int64(len(rows.Data)) {
			t.Errorf("%s: root span rows=%d, result has %d", name, sp.Rows, len(rows.Data))
		}
		sp.Walk(func(s *obs.Span) {
			if s.Self < 0 || s.Self > s.Busy {
				t.Errorf("%s/%s: Self=%v outside [0, Busy=%v]", name, s.Op, s.Self, s.Busy)
			}
			if s.Opens < 0 || s.Rows < 0 {
				t.Errorf("%s/%s: negative counters rows=%d opens=%d", name, s.Op, s.Rows, s.Opens)
			}
			if s.Workers > 0 {
				return // children ran on workers; Busy sums across them
			}
			var sum int64
			for _, c := range s.Children {
				sum += int64(c.Busy)
			}
			if int64(s.Busy) < sum {
				t.Errorf("%s/%s: inclusive Busy=%v < children sum %v", name, s.Op, s.Busy, sum)
			}
		})
	}

	// No trace requested → no spans.
	rows, err := db.QueryCfg("select count(*) as n from orders", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rows.Spans() != nil {
		t.Error("untraced run has non-nil Spans")
	}
}

// TestParallelSpanBoundary: a parallel aggregation run surfaces its
// exchange activity on exactly the boundary spans — workers, morsels,
// and cumulative worker time — and the totals agree with the Rows
// header fields.
func TestParallelSpanBoundary(t *testing.T) {
	db := sharedDB(t)
	sql, _ := TPCHQuery("Q1")
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	cfg.Trace = true
	rows, err := db.QueryCfg(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Workers == 0 {
		t.Fatalf("precondition: Q1 at Parallelism 4 runs on workers, but it spawned none\n%s", rows.Plan)
	}
	var workers, morsels int64
	var boundary *obs.Span
	rows.Spans().Walk(func(s *obs.Span) {
		workers += s.Workers
		morsels += s.Morsels
		if s.Workers > 0 && boundary == nil {
			boundary = s
		}
	})
	if boundary == nil {
		t.Fatal("no span carries Workers > 0 despite parallel execution")
	}
	if boundary.WorkerTime <= 0 {
		t.Errorf("boundary %s: WorkerTime = %v, want > 0", boundary.Op, boundary.WorkerTime)
	}
	if boundary.Self != boundary.Busy {
		t.Errorf("boundary %s: Self=%v != Busy=%v (parallel-boundary rule)",
			boundary.Op, boundary.Self, boundary.Busy)
	}
	if workers != rows.Workers {
		t.Errorf("span workers sum=%d, Rows.Workers=%d", workers, rows.Workers)
	}
	if morsels != rows.Morsels {
		t.Errorf("span morsels sum=%d, Rows.Morsels=%d", morsels, rows.Morsels)
	}
}

// TestTraceCountsSerialVsParallel: for aggregation-only queries the
// per-operator row counts are also a parallelism invariant, up to the
// §3.3 split the parallel plan runs. Every serial operator appears in
// the parallel trace, in order and with its rows; what the parallel
// plan adds is the split's LocalGroupBy, whose rows are the workers'
// partials (a serial plan that splits too has one, of fewer rows), the
// Exchange above it that forwards them, and a Project recombining an
// avg; and the global GroupBy over the Exchange returns the serial
// GroupBy's rows. (Join plans
// are excluded: under an exchange each worker re-executes the build
// side, legitimately multiplying build-side counts.)
func TestTraceCountsSerialVsParallel(t *testing.T) {
	db := sharedDB(t)
	type opRows struct {
		op   string
		rows int64
	}
	walk := func(r *Rows) []opRows {
		lines := strings.Split(strings.TrimSpace(r.Plan), "\n")
		var ops []opRows
		r.Spans().Walk(func(s *obs.Span) {
			op := s.Op
			if i := len(ops); i < len(lines) && strings.HasPrefix(strings.TrimSpace(lines[i]), "LGb") {
				op = "LocalGroupBy"
			}
			ops = append(ops, opRows{op, s.Rows})
		})
		if len(ops) != len(lines) {
			t.Fatalf("%d spans for a plan of %d operators:\n%s", len(ops), len(lines), r.Plan)
		}
		return ops
	}
	for _, name := range []string{"Q1", "Q6"} {
		sql, _ := TPCHQuery(name)
		cfgS := DefaultConfig()
		cfgS.Trace = true
		cfgP := cfgS
		cfgP.Parallelism = 4
		rs, err := db.QueryCfg(sql, cfgS)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := db.QueryCfg(sql, cfgP)
		if err != nil {
			t.Fatal(err)
		}
		serial, par := walk(rs), walk(rp)
		i, locals := 0, 0
		for j, p := range par {
			switch {
			case p.op == "LocalGroupBy" && j > 0 && par[j-1].op == "Exchange":
				// The split's, checked before the positional match: a
				// serial LocalGroupBy of as many rows would match it.
				locals++
				if j < 2 || par[j-1].rows != p.rows || par[j-2].op != "GroupBy" {
					t.Fatalf("%s: the LocalGroupBy is not under an Exchange of its rows under a global GroupBy: %v", name, par)
				}
				global, gb := par[j-2], -1
				for k, s := range serial {
					if s.op == "GroupBy" {
						gb = k
					}
				}
				if gb < 0 || global != serial[gb] {
					t.Errorf("%s: the global GroupBy returned %d rows, the serial GroupBy %v", name, global.rows, serial)
				}
				if i < len(serial) && serial[i].op == "LocalGroupBy" {
					i++
				}
			case i < len(serial) && p == serial[i]:
				i++
			case p.op != "Project" && p.op != "Exchange":
				t.Errorf("%s: %s rows=%d is neither a serial operator nor the split's\nserial: %v\nparallel: %v",
					name, p.op, p.rows, serial, par)
			}
		}
		if i != len(serial) || locals != 1 {
			t.Errorf("%s: %d of %d serial operators matched, %d LocalGroupBys\nserial: %v\nparallel: %v",
				name, i, len(serial), locals, serial, par)
		}
	}
}

// TestMetricsDeltas drives one execution of every outcome class
// against a private DB and asserts the exact counter movements.
func TestMetricsDeltas(t *testing.T) {
	db, err := OpenTPCH(0.001, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()

	snap := func() obs.Snapshot { return db.Metrics() }

	// Success: queries, rows, exec time, histogram, peak memory. A
	// generous budget turns memory accounting on (ungoverned runs skip
	// it) without coming near a spill.
	before := snap()
	memCfg := cfg
	memCfg.MemBudget = 1 << 30
	rows, err := db.QueryCfg(
		"select o_orderstatus, count(*) as n from orders, customer where o_custkey = c_custkey group by o_orderstatus", memCfg)
	if err != nil {
		t.Fatal(err)
	}
	after := snap()
	if d := after.Queries - before.Queries; d != 1 {
		t.Errorf("Queries delta = %d, want 1", d)
	}
	if d := after.RowsReturned - before.RowsReturned; d != uint64(len(rows.Data)) {
		t.Errorf("RowsReturned delta = %d, want %d", d, len(rows.Data))
	}
	if after.Failures != before.Failures {
		t.Errorf("Failures moved on success: %d → %d", before.Failures, after.Failures)
	}
	if after.ExecTime <= before.ExecTime {
		t.Error("ExecTime did not advance")
	}
	if d := after.Durations.N - before.Durations.N; d != 1 {
		t.Errorf("histogram N delta = %d, want 1", d)
	}
	if after.PeakMemMax <= 0 {
		t.Error("PeakMemMax not raised by a hash join build")
	}
	if after.PeakMemMax < rows.PeakMemBytes {
		t.Errorf("PeakMemMax=%d below this run's peak %d", after.PeakMemMax, rows.PeakMemBytes)
	}

	// Each failure class: Queries and Failures advance, the class
	// counter advances, RowsReturned does not.
	fail := func(name, wantClass string, run func() error) {
		t.Helper()
		before := snap()
		if err := run(); err == nil {
			t.Fatalf("%s: expected an error", name)
		}
		after := snap()
		if d := after.Queries - before.Queries; d != 1 {
			t.Errorf("%s: Queries delta = %d, want 1", name, d)
		}
		if d := after.Failures - before.Failures; d != 1 {
			t.Errorf("%s: Failures delta = %d, want 1", name, d)
		}
		if after.RowsReturned != before.RowsReturned {
			t.Errorf("%s: RowsReturned moved on failure", name)
		}
		pick := func(s obs.Snapshot) uint64 {
			switch wantClass {
			case obs.ClassTimeout:
				return s.Timeouts
			case obs.ClassCanceled:
				return s.Cancels
			case obs.ClassRowBudget:
				return s.RowBudgetHits
			case obs.ClassMemBudget:
				return s.MemBudgetHits
			case obs.ClassInternal:
				return s.PanicsContained
			default:
				return s.OtherErrors
			}
		}
		if d := pick(after) - pick(before); d != 1 {
			t.Errorf("%s: %s counter delta = %d, want 1", name, wantClass, d)
		}
	}

	fail("timeout", obs.ClassTimeout, func() error {
		c := cfg
		c.Timeout = 10 * time.Millisecond
		c.faults = faultinject.New(
			faultinject.Rule{Point: "next", Kind: faultinject.Delay, Sleep: 50 * time.Millisecond})
		_, err := db.QueryCfg("select count(*) from orders", c)
		return err
	})
	fail("canceled", obs.ClassCanceled, func() error {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := db.QueryCfgContext(ctx, "select count(*) from lineitem", cfg)
		return err
	})
	fail("row_budget", obs.ClassRowBudget, func() error {
		c := cfg
		c.RowBudget = 10
		_, err := db.QueryCfg("select count(*) from lineitem", c)
		return err
	})
	fail("mem_budget", obs.ClassMemBudget, func() error {
		c := cfg
		c.MemBudget = 1 << 10
		c.DisableSpill = true
		_, err := db.QueryCfg("select o_custkey, count(*) from orders group by o_custkey", c)
		return err
	})
	fail("internal", obs.ClassInternal, func() error {
		c := cfg
		c.faults = faultinject.New(
			faultinject.Rule{Point: "next", Kind: faultinject.Panic, After: 3})
		_, err := db.QueryCfg("select o_custkey, count(*) from orders group by o_custkey", c)
		return err
	})
	fail("other", obs.ClassOther, func() error {
		c := cfg
		c.faults = faultinject.New(
			faultinject.Rule{Point: "next", Kind: faultinject.Error, After: 3})
		_, err := db.QueryCfg("select count(*) from orders", c)
		return err
	})

	// Spills: a small budget with spilling allowed.
	before = snap()
	spillCfg := cfg
	spillCfg.MemBudget = 8 << 10
	r2, err := db.QueryCfg("select o_custkey, count(*) as n from orders group by o_custkey", spillCfg)
	if err != nil {
		t.Fatal(err)
	}
	after = snap()
	if r2.Spills == 0 {
		t.Fatal("precondition: an 8 KiB budget makes the grouping of orders by o_custkey spill, but it did not")
	}
	if d := after.Spills - before.Spills; d != uint64(r2.Spills) {
		t.Errorf("Spills delta = %d, Rows.Spills = %d", d, r2.Spills)
	}

	// Workers and morsels: a parallel run.
	before = snap()
	parCfg := cfg
	parCfg.Parallelism = 4
	r3, err := db.QueryCfg("select sum(l_extendedprice) as s from lineitem", parCfg)
	if err != nil {
		t.Fatal(err)
	}
	after = snap()
	if r3.Workers > 0 {
		if d := after.WorkersSpawned - before.WorkersSpawned; d != uint64(r3.Workers) {
			t.Errorf("WorkersSpawned delta = %d, Rows.Workers = %d", d, r3.Workers)
		}
		if d := after.MorselsDispatched - before.MorselsDispatched; d != uint64(r3.Morsels) {
			t.Errorf("MorselsDispatched delta = %d, Rows.Morsels = %d", d, r3.Morsels)
		}
	}
}

// TestMetricsCacheCounters: the snapshot overlays the plan cache's own
// counters, so one call reports engine and cache state together.
func TestMetricsCacheCounters(t *testing.T) {
	db, err := OpenTPCH(0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if _, err := db.QueryCfg("select count(*) as n from customer", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryCfg("select count(*) as n from customer", cfg); err != nil {
		t.Fatal(err)
	}
	s := db.Metrics()
	cs := db.CacheStats()
	if s.CacheHits != cs.Hits || s.CacheMisses != cs.Misses {
		t.Errorf("snapshot cache counters (%d/%d) disagree with CacheStats (%d/%d)",
			s.CacheHits, s.CacheMisses, cs.Hits, cs.Misses)
	}
	if s.CacheHits == 0 {
		t.Error("second identical query did not register a cache hit")
	}
}

// TestQueryLogJSONL: every completed execution writes exactly one
// well-formed JSON line — success, failure, and streaming.
func TestQueryLogJSONL(t *testing.T) {
	db, err := OpenTPCH(0.001, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.QueryLog = &buf

	// 1: success — a correlated scalar aggregation, so the rewrite
	// rules that decorrelated it appear in the record.
	rows, err := db.QueryCfg(`select c_custkey from customer
		where 1000 < (select sum(o_totalprice) from orders where o_custkey = c_custkey)`, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2: failure (row budget).
	c := cfg
	c.RowBudget = 5
	if _, err := db.QueryCfg("select count(*) from lineitem", c); err == nil {
		t.Fatal("expected a row-budget error")
	}
	// 3: stream, partially consumed then closed.
	st, err := db.QueryStream("select o_orderkey from orders", cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	for i := 0; i < 10; i++ {
		if _, ok, err := st.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
		streamed++
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("query log has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var recs []obs.QueryRecord
	for i, line := range lines {
		var r obs.QueryRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if r.Fingerprint == "" {
			t.Errorf("line %d: empty fingerprint", i)
		}
		if _, err := time.Parse(time.RFC3339Nano, r.Time); err != nil {
			t.Errorf("line %d: bad ts: %v", i, err)
		}
		recs = append(recs, r)
	}
	if recs[0].Rows != int64(len(rows.Data)) || recs[0].ErrorClass != "" {
		t.Errorf("success record: %+v", recs[0])
	}
	if len(recs[0].Rules) == 0 {
		t.Error("success record lists no rewrite rules for a decorrelated aggregation")
	}
	if recs[0].Cache == "" {
		t.Errorf("success record has no cache status: %+v", recs[0])
	}
	if recs[1].ErrorClass != obs.ClassRowBudget || recs[1].Error == "" {
		t.Errorf("failure record: %+v", recs[1])
	}
	if recs[2].Rows != int64(streamed) {
		t.Errorf("stream record rows = %d, want %d (rows actually pulled)", recs[2].Rows, streamed)
	}
	if recs[2].Cache != "bypass" {
		t.Errorf("stream record cache = %q, want bypass", recs[2].Cache)
	}
}

// TestTracedFaultsNoLeaks: tracing changes no lifecycle guarantees —
// under injected faults with spans on and spilling active, goroutines
// drain and no spill file survives.
func TestTracedFaultsNoLeaks(t *testing.T) {
	db := sharedDB(t)
	dir := t.TempDir()
	base := runtime.NumGoroutine()
	rules := []faultinject.Rule{
		{Point: "next", Kind: faultinject.Error, After: 40},
		{Point: "next", Kind: faultinject.Panic, After: 15},
		{Point: "open", Kind: faultinject.Error},
		{Op: "GroupBy", Kind: faultinject.AllocFail, After: 2},
	}
	sql := `select o_custkey, count(*) as n, sum(o_totalprice) as s
	        from orders, customer where o_custkey = c_custkey
	        group by o_custkey`
	for _, par := range []int{1, 4} {
		for _, rule := range rules {
			cfg := DefaultConfig()
			cfg.Trace = true
			cfg.Parallelism = par
			cfg.MemBudget = 32 << 10
			cfg.SpillDir = dir
			cfg.faults = faultinject.New(rule)
			rows, err := db.QueryCfg(sql, cfg)
			if err == nil && rows.Spans() == nil {
				t.Error("traced successful run missing spans")
			}
		}
	}
	waitGoroutines(t, base)
	expectEmptyDir(t, dir, "traced fault runs")
}

// TestExpvarAndMarshal: the registry is published to expvar at Open
// and the snapshot marshals from there.
func TestExpvarAndMarshal(t *testing.T) {
	db := sharedDB(t) // Open published "orthoq"
	if _, err := db.Query("select count(*) as n from nation"); err != nil {
		t.Fatal(err)
	}
	v := expvar.Get("orthoq")
	if v == nil {
		t.Fatal(`expvar.Get("orthoq") = nil; Open did not publish the registry`)
	}
	var s obs.Snapshot
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatalf("expvar rendering is not a valid snapshot: %v", err)
	}
	if s.Queries == 0 {
		t.Error("published snapshot shows zero queries after a query ran")
	}
	if _, err := json.Marshal(db.Metrics()); err != nil {
		t.Fatal(err)
	}
}

// TestDroppedDBIsCollected: a DB its caller drops is garbage, although
// Open published its counters in the process-wide expvar registry. Only
// the process's first DB is published, so when another test opened one
// first, the test reruns itself alone in a fresh process.
func TestDroppedDBIsCollected(t *testing.T) {
	if expvar.Get("orthoq") != nil {
		rerunAlone(t)
		return
	}
	gone := make(chan struct{})
	func() {
		db, err := OpenTPCH(0.001, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query("select count(*) as n from lineitem"); err != nil {
			t.Fatal(err)
		}
		runtime.AddCleanup(db, func(ch chan struct{}) { close(ch) }, gone)
	}()
	if expvar.Get("orthoq") == nil {
		t.Fatal(`expvar.Get("orthoq") = nil; Open did not publish the registry`)
	}
	awaitCollected(t, "the dropped DB", gone)
}

// rerunAlone runs the calling test as the only test of a fresh process
// and fails unless it passes there.
func rerunAlone(t *testing.T) {
	t.Helper()
	alone := "^" + t.Name() + "$"
	if flag.Lookup("test.run").Value.String() == alone {
		t.Fatal("the registry was published before this test, although it runs alone")
	}
	out, err := exec.Command(os.Args[0], "-test.run="+alone, "-test.v").CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: "+t.Name())) {
		t.Fatalf("%s alone: %v\n%s", t.Name(), err, out)
	}
}

// awaitCollected forces collections until a cleanup closes gone.
func awaitCollected(t *testing.T, what string, gone <-chan struct{}) {
	t.Helper()
	for range 10 {
		runtime.GC()
		select {
		case <-gone:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("%s is still reachable after ten forced collections", what)
}

// TestBatchAnalyzeTrace checks that EXPLAIN ANALYZE surfaces batch
// counts.
func TestBatchAnalyzeTrace(t *testing.T) {
	db := sharedDB(t)
	sql, _ := TPCHQuery("Q6")
	rows, err := db.QueryAnalyze(sql, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rows.Trace, "batches=") {
		t.Fatalf("trace missing batch counts:\n%s", rows.Trace)
	}
}
