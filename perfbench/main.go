// Command perfbench is the repository's benchmark: four workloads over
// the whole engine, each run checked for correct answers, reporting the
// end-to-end and per-layer metrics declared in BENCHMARK.json. See
// README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"orthoq"
	"orthoq/internal/server"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

// workload is what distinguishes the four workloads; everything else is
// the engine's defaults.
type workload struct {
	sf      float64
	wire    bool // over HTTP with two sessions, as opposed to one embedded client
	cold    bool // plan cache disabled: every query is optimised again
	durable bool // on a data directory under the always policy, mixed with writes
}

var workloads = map[string]workload{
	"cold_analytic":      {sf: 0.01, cold: true},
	"warm_analytic":      {sf: 0.005},
	"wire_point":         {sf: 0.02, wire: true},
	"wire_mixed_durable": {sf: 0.02, wire: true, durable: true},
}

// sizes are the fixed amounts of work around the timed window.
type sizes struct {
	sf           float64 // 0 = the workload's own
	setups       int     // set-ups per run; setup_s is their median
	warmupOps    int     // operations per wire session before the window
	tracedPasses int     // analytic passes of the traced run
	tracedOps    int     // operations per wire session of the traced run
}

var (
	fullSize = sizes{setups: 3, warmupOps: 2000, tracedPasses: 2, tracedOps: 2000}
	toySize  = sizes{sf: 0.002, setups: 1, warmupOps: 50, tracedPasses: 1, tracedOps: 100}
)

// env is one set-up system under test.
type env struct {
	wl      workload
	kinds   []string // operation kind names, indexed by op.kind
	db      *orthoq.DB
	clients []client

	// Wire workloads only.
	or       *oracle
	srv      *server.Server
	http     *httptest.Server
	durable  orthoq.DurableConfig
	events   *ledger
	bytesOut atomic.Int64
}

func (e *env) close() {
	if e.http != nil {
		e.http.Close()
		e.srv.Close()
	}
	if e.wl.durable {
		e.db.Kill()
		os.RemoveAll(e.durable.DataDir)
	}
}

// counters reads the engine's and the server's own counters.
func (e *env) counters() orthoq.MetricsSnapshot {
	if e.srv != nil {
		return e.srv.Metrics()
	}
	return e.db.Metrics()
}

var errWarmup = errors.New("an operation failed during warm-up")

var complaints atomic.Int32

// complain reports a failed operation on standard error, the first few
// times.
func complain(format string, args ...any) {
	if complaints.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne sets one workload up, measures it for about seconds and
// returns the end-to-end metrics, or with trace the per-layer ones.
func runOne(name string, seed int64, seconds float64, trace bool, sz sizes) (*runResult, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	wl, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if sz.sf != 0 {
		wl.sf = sz.sf
	}
	dur := time.Duration(seconds * float64(time.Second))

	// The apparatus that checks answers is not part of the system's
	// set-up and is built once. Only the traced run keeps the oracle's
	// copy of the data, to drive it layer by layer.
	var setup func() (*env, error)
	var store *storage.Store
	if wl.wire {
		or, rows, err := newOracle(wl.sf)
		if err != nil {
			return nil, err
		}
		if trace {
			store = rows
		}
		setup = func() (*env, error) { return setupWire(wl, or, seed, sz.warmupOps) }
	} else {
		golden, err := loadGolden(wl.sf)
		if err != nil {
			return nil, err
		}
		if trace {
			if store, err = tpch.Generate(wl.sf, dataSeed); err != nil {
				return nil, err
			}
		}
		setup = func() (*env, error) { return setupAnalytic(wl, golden, seed) }
	}

	goroutines := runtime.NumGoroutine()
	m := map[string]float64{}
	res := &runResult{}
	var e *env
	if !trace {
		var setups []float64
		for i := 0; i < sz.setups; i++ {
			if e != nil {
				e.close()
				e = nil
				debug.FreeOSMemory()
			}
			start := time.Now()
			if e, err = setup(); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		defer e.close()
		win := drive(e.clients, dur)
		res.Attempted, res.Failed = len(win.ops), win.failed()
		if wl.durable {
			cc, err := e.finishDurable()
			if err != nil {
				return nil, err
			}
			res.Attempted, res.Failed = res.Attempted+cc.attempted, res.Failed+cc.failed
		}
		m["setup_s"] = median(setups)
		m["ops_per_s"] = win.opsPerSecond()
		m["geomean_ms"] = win.geomeanMS(len(e.kinds))
		m["read_ms_p50"] = win.overSlices(isRead, median)
		m["read_ms_p95"] = win.overSlices(isRead, func(l []float64) float64 { return percentile(l, 95) })
		if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
		for k, lat := range win.kindLatencies(len(e.kinds)) {
			fmt.Printf("%-20s %-16s %10.3f ms\n", name, e.kinds[k], lat)
		}
		res.Metrics, err = report(spec.EndToEnd, m)
	} else {
		if e, err = setup(); err != nil {
			return nil, err
		}
		err = traced(e, store, name, dur, sz, m, res)
		e.close()
		if err != nil {
			return nil, err
		}
		// Goroutines of closed connections take a moment to exit.
		for wait := 0; runtime.NumGoroutine() > goroutines && wait < 100; wait++ {
			time.Sleep(10 * time.Millisecond)
		}
		m["driver.goroutines_leaked"] = float64(max(runtime.NumGoroutine()-goroutines, 0))
		res.Metrics, err = report(spec.PerLayer, m)
	}
	res.Correct = res.Failed == 0
	return res, err
}

// traced is the second kind of run: a fixed number of operations
// repeated layer by layer with spans around each layer, the engine's
// counters read at the same boundaries, then a shorter untraced window
// for reference.
func traced(e *env, store *storage.Store, name string, dur time.Duration, sz sizes, m map[string]float64, res *runResult) error {
	sh, err := newShadow(store, e.wl.durable)
	if err != nil {
		return err
	}
	defer sh.close()
	var sqls []string
	n := sz.tracedOps
	if e.wl.wire {
		sqls = []string{pointRead(1), restrictedQ1(1, e.or.threshold)}
		if e.wl.durable {
			sqls = append(sqls, eventsSQL)
		}
	} else {
		for _, q := range analyticQueries() {
			sqls = append(sqls, q.sql)
		}
		n = sz.tracedPasses * len(sqls)
	}
	if err := sh.checkFidelity(sqls); err != nil {
		return err
	}

	// The traced operations come first: after the fixed warm-up the
	// generators are in the same state on every run of a seed, so the
	// same statements are traced and exact counters repeat.
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	before, bytes0 := e.counters(), e.bytesOut.Load()
	t0 := time.Now()
	recs := make([]*recorder, len(e.clients))
	tracedOps := make([][]op, len(e.clients))
	var wg sync.WaitGroup
	for i, c := range e.clients {
		recs[i] = newRecorder(t0, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				tracedOps[i] = append(tracedOps[i], c.doTraced(recs[i], sh))
			}
		}()
	}
	wg.Wait()
	after := e.counters()
	m["server.bytes_out"] = float64(e.bytesOut.Load() - bytes0)
	win := drive(e.clients, dur*2/5)
	runtime.ReadMemStats(&mem1)

	var tracedWin window
	for _, ops := range tracedOps {
		tracedWin.ops = append(tracedWin.ops, ops...)
	}
	res.Attempted, res.Failed = len(win.ops)+len(tracedWin.ops), win.failed()+tracedWin.failed()

	layerMetrics(recs, m)
	counterMetrics(before, after, m)
	m["wal.replay_records"], m["wal.replay_ms"], m["driver.recovery_s"] = 0, 0, 0
	if e.wl.durable {
		cc, err := e.finishDurable()
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = res.Attempted+cc.attempted, res.Failed+cc.failed
		m["wal.replay_records"] = float64(cc.reopened.WAL.ReplayRecords)
		m["wal.replay_ms"] = float64(cc.reopened.WAL.ReplayDurationUS) / 1e3
		m["driver.recovery_s"] = cc.recovery.Seconds()
	}

	// Tracing overhead: how much slower each kind got between the
	// untraced window and the traced operations, as a geometric mean over
	// kinds.
	var slowdown []float64
	plain, withTrace := win.kindLatencies(len(e.kinds)), tracedWin.kindLatencies(len(e.kinds))
	for k := range plain {
		if plain[k] > 0 && withTrace[k] > 0 {
			slowdown = append(slowdown, withTrace[k]/plain[k])
		}
	}
	m["driver.trace_overhead_share"] = geomean(slowdown) - 1
	reads, writes := latencies(win.ops, isRead), latencies(win.ops, isWrite)
	m["driver.read_ms_p99"] = percentile(reads, 99)
	m["driver.read_ms_max"] = percentile(reads, 100)
	m["driver.write_ms_p50"] = median(writes)
	m["driver.write_ms_p95"] = percentile(writes, 95)
	m["driver.write_ms_p99"] = percentile(writes, 99)
	var self time.Duration
	for _, o := range win.ops {
		self += o.self
	}
	m["driver.client_self_ms"] = ms(self)
	m["driver.gc_pause_ms_total"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	m["driver.failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	return writeTrace(filepath.Join(benchDir(), "out", "trace_"+name+".jsonl"), recs)
}

// counterMetrics turns the engine's own counters, read before and after
// the traced operations, into per-layer numbers.
func counterMetrics(before, after orthoq.MetricsSnapshot, m map[string]float64) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	m["plancache.hits"] = d(after.CacheHits, before.CacheHits)
	m["plancache.misses"] = d(after.CacheMisses, before.CacheMisses)
	m["plancache.bypasses"] = d(after.CacheBypasses, before.CacheBypasses)
	m["plancache.evictions"] = d(after.CacheEvictions, before.CacheEvictions)
	m["plancache.hit_ratio"] = ratio(m["plancache.hits"], m["plancache.hits"]+m["plancache.misses"]+m["plancache.bypasses"])

	for _, k := range []string{"hits", "misses", "shared", "evictions", "invalidations", "bytes", "hit_ratio"} {
		m["resultcache."+k] = 0
	}
	if a, b := after.ResultCache, before.ResultCache; a != nil && b != nil {
		m["resultcache.hits"] = d(a.Hits, b.Hits)
		m["resultcache.misses"] = d(a.Misses, b.Misses)
		m["resultcache.shared"] = d(a.Shared, b.Shared)
		m["resultcache.evictions"] = d(a.Evictions, b.Evictions)
		m["resultcache.invalidations"] = d(a.Invalidations, b.Invalidations)
		m["resultcache.bytes"] = float64(a.Bytes)
		m["resultcache.hit_ratio"] = ratio(m["resultcache.hits"], m["resultcache.hits"]+m["resultcache.misses"]+m["resultcache.shared"])
	}

	for _, k := range []string{"queries_admitted", "queries_queued", "admission_rejects", "pool_peak_bytes"} {
		m["server."+k] = 0
	}
	if a, b := after.Server, before.Server; a != nil && b != nil {
		m["server.queries_admitted"] = d(a.QueriesAdmitted, b.QueriesAdmitted)
		m["server.queries_queued"] = d(a.QueriesQueued, b.QueriesQueued)
		m["server.admission_rejects"] = d(a.AdmissionRejects, b.AdmissionRejects)
		m["server.pool_peak_bytes"] = float64(a.PoolPeak)
	}

	for _, k := range []string{"appends", "bytes", "fsyncs", "records_per_fsync", "bytes_per_user_byte", "checkpoints"} {
		m["wal."+k] = 0
	}
	if a, b := after.WAL, before.WAL; a != nil && b != nil {
		m["wal.appends"] = d(a.Appends, b.Appends)
		m["wal.bytes"] = d(a.Bytes, b.Bytes)
		m["wal.fsyncs"] = d(a.Fsyncs, b.Fsyncs)
		m["wal.records_per_fsync"] = ratio(m["wal.appends"], m["wal.fsyncs"])
		// User bytes: two 8-byte integers per inserted row.
		m["wal.bytes_per_user_byte"] = ratio(m["wal.bytes"], m["storage.rows_inserted"]*16)
		m["wal.checkpoints"] = d(a.Checkpoints, b.Checkpoints)
	}
}

func main() {
	var (
		name        = flag.String("workload", "", "run one workload and print its metrics as the last line (without: the whole suite)")
		seed        = flag.Int64("seed", 1, "workload seed: query order, key draws, read/write schedule")
		seconds     = flag.Float64("seconds", 10, "length of the timed window")
		trace       = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		reps        = flag.Int("reps", 3, "suite: untraced runs per workload, each on its own seed")
		compare     = flag.Bool("compare", false, "compare two suite results: -compare old.json new.json")
		selfcheck   = flag.Bool("selfcheck", false, "run the suite twice and fail if the two disagree beyond a bound")
		writeAnswer = flag.Bool("write-golden", false, "recompute the golden answers under golden/")
	)
	flag.Parse()
	var err error
	switch {
	case *writeAnswer:
		for _, sf := range []float64{toySize.sf, workloads["cold_analytic"].sf, workloads["warm_analytic"].sf} {
			if err = writeGolden(sf); err != nil {
				break
			}
		}
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: perfbench -compare old.json new.json")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(*seed, *seconds, *reps)
	case *name == "":
		_, err = suite(*seed, *seconds, *reps, filepath.Join(benchDir(), "out", "result.json"))
	default:
		var res *runResult
		if res, err = runOne(*name, *seed, *seconds, *trace == 1, fullSize); err != nil {
			break
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			err = fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
