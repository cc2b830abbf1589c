package orthoq

// End-to-end tests of the query lifecycle governance layer: the typed
// error taxonomy, cancellation and deadlines, memory-bounded execution
// with Grace-style spilling, panic containment, and the fault-injection
// property suite (no goroutine leaks, no stranded spill files, and
// spill-vs-in-memory bag equivalence).

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"orthoq/internal/exec/faultinject"
)

// waitGoroutines waits for the goroutine count to settle back to the
// baseline (plus slack for runtime housekeeping), failing with a full
// stack dump if it doesn't.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, base, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// expectEmptyDir fails if any spill partition file survived a run.
func expectEmptyDir(t *testing.T, dir, label string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("%s: %d spill files left behind: %v", label, len(entries), names)
	}
}

// TestTypedErrors: every governance abort classifies under exactly one
// exported sentinel via errors.Is.
func TestTypedErrors(t *testing.T) {
	db := sharedDB(t)
	cfg := DefaultConfig()

	t.Run("RowBudget", func(t *testing.T) {
		c := cfg
		c.RowBudget = 50
		_, err := db.QueryCfg("select c1.c_custkey from customer c1, customer c2", c)
		if !errors.Is(err, ErrRowBudget) {
			t.Fatalf("want ErrRowBudget, got %v", err)
		}
	})

	t.Run("MemBudgetHard", func(t *testing.T) {
		c := cfg
		c.MemBudget = 1 << 10
		c.DisableSpill = true
		_, err := db.QueryCfg("select o_custkey, count(*) from orders group by o_custkey", c)
		if !errors.Is(err, ErrMemBudget) {
			t.Fatalf("want ErrMemBudget, got %v", err)
		}
	})

	t.Run("Canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := db.QueryCfgContext(ctx, "select count(*) from lineitem", cfg)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
	})

	t.Run("Timeout", func(t *testing.T) {
		c := cfg
		c.Timeout = time.Nanosecond
		_, err := db.QueryCfg("select count(*) from lineitem", c)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("want ErrTimeout, got %v", err)
		}
		if errors.Is(err, ErrCanceled) {
			t.Fatalf("deadline expiry must not classify as ErrCanceled: %v", err)
		}
	})

	t.Run("TimeoutMidFlight", func(t *testing.T) {
		// A slow operator (injected delay) against a short deadline:
		// the tick-amortized context check must abort mid-execution.
		c := cfg
		c.Timeout = 20 * time.Millisecond
		c.faults = faultinject.New(
			faultinject.Rule{Point: "next", Kind: faultinject.Delay, Sleep: 100 * time.Millisecond})
		_, err := db.QueryCfg("select count(*) from lineitem", c)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("want ErrTimeout, got %v", err)
		}
	})

	t.Run("Internal", func(t *testing.T) {
		c := cfg
		c.faults = faultinject.New(
			faultinject.Rule{Point: "next", Kind: faultinject.Panic, After: 3})
		_, err := db.QueryCfg("select o_custkey, count(*) from orders group by o_custkey", c)
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("want ErrInternal, got %v", err)
		}
		var ie *InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("ErrInternal does not carry *InternalError: %v", err)
		}
		if ie.Op == "" || ie.Fingerprint == "" {
			t.Fatalf("InternalError missing context: op=%q fingerprint=%q", ie.Op, ie.Fingerprint)
		}
	})
}

// TestSpillEquivalenceTPCH: with a budget small enough to force
// Grace-style spilling, every benchmark query returns the same bag of
// rows as the unbounded run, serially and in parallel, and no spill
// file survives any run.
func TestSpillEquivalenceTPCH(t *testing.T) {
	db := sharedDB(t)
	base := DefaultConfig()
	spillDir := t.TempDir()
	var totalSpills int64
	for _, name := range TPCHQueryNames() {
		sql, ok := TPCHQuery(name)
		if !ok {
			t.Fatalf("missing query %s", name)
		}
		want, err := db.QueryCfg(sql, base)
		if err != nil {
			t.Fatalf("%s unbounded: %v", name, err)
		}
		for _, par := range []int{1, 4} {
			cfg := base
			cfg.Parallelism = par
			cfg.MemBudget = 8 << 10
			cfg.SpillDir = spillDir
			got, err := db.QueryCfg(sql, cfg)
			if err != nil {
				t.Fatalf("%s par=%d budgeted: %v", name, par, err)
			}
			if !sameBagTolerant(want.Data, got.Data) {
				t.Errorf("%s par=%d: budgeted run disagrees with unbounded\nwant %d rows, got %d",
					name, par, len(want.Data), len(got.Data))
			}
			if got.Spills > 0 && got.PeakMemBytes <= 0 {
				t.Errorf("%s par=%d: spilled but PeakMemBytes=%d", name, par, got.PeakMemBytes)
			}
			totalSpills += got.Spills
			expectEmptyDir(t, spillDir, name)
		}
	}
	if totalSpills == 0 {
		t.Fatal("an 8KiB budget never forced a spill across the TPC-H suite")
	}
}

// TestFaultInjectionProperties is the harness property sweep: for a
// corpus of TPC-H and random subquery shapes, inject errors, panics,
// and allocation failures at operator boundaries, serially and in
// parallel. Every run must either fail with a typed error or return
// the baseline bag of rows; afterwards no goroutine may linger and no
// spill file may remain.
func TestFaultInjectionProperties(t *testing.T) {
	db := sharedDB(t)
	cfg := DefaultConfig()
	spillDir := t.TempDir()

	queries := TPCHQueryNames()[:3]
	var sqls []string
	for _, name := range queries {
		sql, _ := TPCHQuery(name)
		sqls = append(sqls, sql)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		sqls = append(sqls, randQuery(rng))
	}

	rules := []faultinject.Rule{
		{Point: "open", Kind: faultinject.Error},
		{Point: "open", Kind: faultinject.Error, After: 3},
		{Point: "next", Kind: faultinject.Error, After: 40},
		{Point: "next", Kind: faultinject.Panic, After: 15},
		{Point: "close", Kind: faultinject.Error},
		{Point: "close", Kind: faultinject.Panic, After: 2},
		{Op: "Join", Point: "next", Kind: faultinject.Panic},
		{Op: "GroupBy", Point: "next", Kind: faultinject.Error, After: 5},
		{Kind: faultinject.AllocFail},
		{Op: "GroupBy", Kind: faultinject.AllocFail, After: 2},
	}

	// Warm the plan cache and any lazy runtime state, then take the
	// goroutine baseline for the leak check.
	if _, err := db.QueryCfg(sqls[0], cfg); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine() + 2

	for qi, sql := range sqls {
		want, err := db.QueryCfg(sql, cfg)
		if err != nil {
			t.Fatalf("query %d baseline: %v\nsql: %s", qi, err, sql)
		}
		for ri, rule := range rules {
			for _, par := range []int{1, 4} {
				c := cfg
				c.Parallelism = par
				c.SpillDir = spillDir
				c.faults = faultinject.New(rule)
				got, err := db.QueryCfg(sql, c)
				label := func() string {
					return strings.TrimSpace(sql[:min(len(sql), 60)])
				}
				if err != nil {
					typed := errors.Is(err, ErrInternal) || errors.Is(err, ErrMemBudget) ||
						errors.Is(err, ErrRowBudget) || errors.Is(err, ErrCanceled) ||
						errors.Is(err, ErrTimeout) || errors.Is(err, faultinject.ErrInjected)
					if !typed {
						t.Fatalf("query %d rule %d par %d: untyped failure %v\nsql: %s",
							qi, ri, par, err, label())
					}
				} else if !sameBagTolerant(want.Data, got.Data) {
					t.Fatalf("query %d rule %d par %d: fault-surviving run returned wrong rows\nsql: %s",
						qi, ri, par, label())
				}
				expectEmptyDir(t, spillDir, label())
			}
		}
	}
	waitGoroutines(t, base)
}

// TestStreamMatchesQuery: cursor streaming returns the same rows as
// the materializing API.
func TestStreamMatchesQuery(t *testing.T) {
	db := sharedDB(t)
	cfg := DefaultConfig()
	sql := `select l_orderkey, o_totalprice from lineitem, orders
		where l_orderkey = o_orderkey and l_quantity > 40`
	want, err := db.QueryCfg(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.QueryStream(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.Columns()) != len(want.Columns) {
		t.Fatalf("stream columns %v, want %v", st.Columns(), want.Columns)
	}
	var got []Row
	for {
		row, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, row)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !sameBagTolerant(want.Data, got) {
		t.Fatalf("stream returned %d rows, query %d", len(got), len(want.Data))
	}
}

// TestStreamPagesUnderRowBudget: a stream that is read a few rows at a
// time and abandoned pays for about the rows it read, not for batches
// produced ahead of it — five rows of a 30 000-row scan fit a RowBudget
// of 50 (a server session's paged cursor carries such a budget).
func TestStreamPagesUnderRowBudget(t *testing.T) {
	db := sharedDB(t)
	cfg := DefaultConfig()
	cfg.RowBudget = 50
	st, err := db.QueryStream(`select l_orderkey, l_quantity from lineitem`, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 5; i++ {
		if _, ok, err := st.Next(); err != nil || !ok {
			t.Fatalf("row %d under RowBudget 50: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestStreamEarlyCloseNoLeak: abandoning a parallel cursor mid-result
// — three rows into a spilling aggregation, one row into a full
// lineitem scan whose exchange workers are still producing — must tear
// down the workers and release spill files; Close is idempotent.
func TestStreamEarlyCloseNoLeak(t *testing.T) {
	db := sharedDB(t)
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	cfg.MemBudget = 8 << 10
	cfg.SpillDir = t.TempDir()
	cases := []struct {
		sql  string
		read int
	}{
		{`select l_orderkey, count(*) from lineitem group by l_orderkey`, 3},
		{`select l_orderkey, l_quantity from lineitem`, 1},
	}

	base := runtime.NumGoroutine() + 2
	for i := 0; i < 10; i++ {
		c := cases[i%len(cases)]
		st, err := db.QueryStream(c.sql, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < c.read; j++ {
			if _, ok, err := st.Next(); err != nil || !ok {
				t.Fatalf("iteration %d row %d: ok=%v err=%v", i, j, ok, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("second close not idempotent: %v", err)
		}
	}
	waitGoroutines(t, base)
	expectEmptyDir(t, cfg.SpillDir, "early-closed streams")
}

// TestCancelDuringParallelRun: cancellation mid-flight with workers
// running must return ErrCanceled and leak nothing.
func TestCancelDuringParallelRun(t *testing.T) {
	db := sharedDB(t)
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	cfg.faults = faultinject.New(
		faultinject.Rule{Point: "next", Kind: faultinject.Delay, Sleep: 50 * time.Millisecond, After: 2})

	base := runtime.NumGoroutine() + 2
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := db.QueryCfgContext(ctx, "select l_orderkey, count(*) from lineitem group by l_orderkey", cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	waitGoroutines(t, base)
}

// TestAnalyzeReportsMemory: EXPLAIN ANALYZE surfaces per-operator
// memory and spill counters once a budget forces them into play.
func TestAnalyzeReportsMemory(t *testing.T) {
	db := sharedDB(t)
	cfg := DefaultConfig()
	cfg.MemBudget = 16 << 10
	cfg.SpillDir = t.TempDir()
	r, err := db.QueryAnalyze("select o_custkey, count(*) from orders group by o_custkey", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Trace, "mem=") {
		t.Fatalf("trace lacks mem= annotation:\n%s", r.Trace)
	}
	if r.Spills > 0 && !strings.Contains(r.Trace, "spills=") {
		t.Fatalf("query spilled but trace lacks spills=:\n%s", r.Trace)
	}
	if r.PeakMemBytes <= 0 {
		t.Fatalf("PeakMemBytes = %d, want > 0 under a budget", r.PeakMemBytes)
	}
}
