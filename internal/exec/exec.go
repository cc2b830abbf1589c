// Package exec is the execution engine: it compiles logical algebra
// trees into pull-based (Volcano-style) iterator trees over the
// in-memory store and runs them.
//
// Physical algorithm selection mirrors the cost model in internal/opt:
// joins with extractable equality keys run as hash joins, other joins
// as nested loops; Apply runs as correlated nested loops whose inner
// side re-opens per outer row, using index seeks when the correlated
// predicate binds an indexed column (the classic index-lookup-join);
// aggregation is hash-based; SegmentApply partitions its input and
// evaluates the inner expression once per segment (paper §3.4).
package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"orthoq/internal/algebra"
	"orthoq/internal/eval"
	"orthoq/internal/exec/faultinject"
	"orthoq/internal/sql/types"
	"orthoq/internal/stats"
	"orthoq/internal/storage"
)

// Context carries the run-time state of one execution strand. Under
// serial execution there is exactly one Context for the whole iterator
// tree; under morsel-driven parallel execution each worker gets its
// own clone (workerClone) holding private correlation parameters,
// segment bindings, and evaluator, while query-wide state — the row
// budget accounting and the hash-join build cache — lives in the
// sharedState referenced by every clone.
type Context struct {
	Store *storage.Store
	Md    *algebra.Metadata
	// Stats is unused: the executor's estimates come from the plan
	// (Estimates). The field stays because perfbench's tracer, which
	// changes only with the benchmark, still sets it.
	Stats *stats.Collection
	// Estimates is the optimizer's estimate for each node of the plan
	// this run executes: hash-table pre-sizes and each Apply's strategy
	// are read from it. Nil means nothing is known (no hints; correlated
	// Applies run batched).
	Estimates Estimates
	// Parallelism is the worker count for morsel-driven parallel
	// execution. 0 or 1 means serial; higher values let eligible
	// scan/join/aggregation subtrees run on that many goroutines. Every
	// other physical choice is made from the plan (strategy.go).
	Parallelism int
	// Apply, when set to "sequential", "batched" or "parallel", runs
	// every Apply on that path instead of the one the estimates pick: a
	// seam for tests that hold the three paths to one another. A forced
	// "parallel" still degrades to batched for inner sides that cannot
	// be recompiled on a worker context.
	Apply string
	// RowBudget, when positive, aborts execution after this many
	// operator-row productions — a guard for runaway plans in tests.
	// The counter itself is shared across workers (see sharedState) so
	// the guard stays exact under concurrency.
	RowBudget int64
	// Params binds query parameter slots (algebra.Param) for this run.
	// Cached plans are compiled once against parameter slots and
	// re-bound here per execution.
	Params []types.Datum
	// Ctx, when non-nil, carries cancellation and deadline for this
	// run. Operators check it at amortized row boundaries (charge) and
	// at batch boundaries, so every strand — including morsel workers —
	// observes cancellation promptly.
	Ctx context.Context
	// MemBudget, when positive, caps the bytes of operator working
	// state (hash-join builds, aggregation tables, sort buffers,
	// exchange buffers) accounted across all workers. Spill-capable
	// operators degrade to partitioned temp files when the budget is
	// reached; with DisableSpill the budget is a hard cap enforced with
	// ErrMemBudget.
	MemBudget int64
	// DisableSpill turns graceful degradation off: an operator that
	// would exceed MemBudget aborts with ErrMemBudget instead of
	// spilling.
	DisableSpill bool
	// SpillDir is where spill partition files are created ("" = the
	// system temp directory).
	SpillDir string
	// Faults, when non-nil, is the test-only fault-injection harness
	// consulted at every operator boundary.
	Faults *faultinject.Injector
	// Fingerprint identifies the plan in contained-panic reports.
	Fingerprint string
	// Snap, when non-nil, is an explicit store snapshot the run reads
	// from (transactional repeatable reads). When nil, the run still
	// pins each table's published version at first touch, so a single
	// query always sees one consistent state per table even while
	// concurrent writers publish new versions.
	Snap *storage.Snapshot

	// shared is the per-query state common to all worker clones.
	shared *sharedState

	// tick amortizes context checks in charge(): the context is polled
	// every ctxCheckEvery charged rows per strand. Strand-private, so
	// no atomics.
	tick int

	// params holds correlation bindings installed by Apply iterators.
	params eval.MapEnv
	// segments holds the current segment rows per SegmentApply scope.
	segments map[*algebra.SegmentApply]*segmentBinding
	// segStack tracks the enclosing SegmentApply scopes during
	// compilation so SegmentRefs bind to their owner.
	segStack []*algebra.SegmentApply
	// evaluator shared across operators of this strand.
	ev *eval.Evaluator
	// trace, when non-nil, collects per-operator statistics keyed by
	// the logical node (see EnableTrace / FormatTrace).
	trace map[algebra.Rel]*OpStats

	// pplan, when non-nil, marks the subtree compiled as a parallel
	// exchange (set on the coordinating context only).
	pplan *parallelPlan
	// morsels + driverGet, when non-nil, make compileGet lower the
	// driver base-table scan to a morsel-claiming scan (set on worker
	// clones only).
	morsels   *morselSource
	driverGet *algebra.Get
	// isWorker marks worker clones; it gates hash-join build sharing.
	isWorker bool

	// clk is the strand's amortized trace clock: traceIter wrappers on
	// this strand share it so timing reads hit the real clock only every
	// few operator calls. Strand-private, zero value ready.
	clk amortClock
}

type segmentBinding struct {
	cols []algebra.ColID
	rows []types.Row
}

// sharedState is per-query execution state shared by all workers.
type sharedState struct {
	// produced counts operator-row productions toward RowBudget.
	produced atomic.Int64
	// memUsed is the bytes of operator working state currently
	// accounted; memPeak is its high-water mark. Shared across workers
	// like produced, so MemBudget stays a query-wide cap under
	// parallelism.
	memUsed atomic.Int64
	memPeak atomic.Int64
	// spills counts spill partition files written by any operator.
	spills atomic.Int64
	// workers and morsels count parallel-exchange activity for this
	// query: goroutines spawned and driver-scan morsels dispatched.
	// Maintained whether or not tracing is on — they feed the engine
	// metrics registry, not just EXPLAIN ANALYZE.
	workers atomic.Int64
	morsels atomic.Int64
	// wtrace accumulates operator statistics merged from finished
	// parallel workers (each worker traces into a private map; see
	// mergeWorkerTrace). Guarded by wmu: workers finish concurrently.
	wmu    sync.Mutex
	wtrace map[algebra.Rel]*OpStats
	// builds caches hash-join build tables keyed by the logical Join
	// node so parallel workers build once and probe a shared read-only
	// table.
	mu     sync.Mutex
	builds map[algebra.Rel]*sharedBuild
	// spillFiles registers live spill files so a failing or abandoned
	// run still removes every temp file (see releaseSpills).
	spillMu    sync.Mutex
	spillFiles map[*spillFile]struct{}
	// pins holds the table versions this query reads: lazily pinned at
	// first touch (query-level repeatable reads) and shared by every
	// worker clone, so all strands — morsel workers, Apply inner
	// recompiles — resolve a table to the same frozen version.
	pinMu sync.Mutex
	pins  map[string]*storage.Version
}

// buildFor returns the shared build slot for a join node, creating it
// on first request.
func (s *sharedState) buildFor(key algebra.Rel) *sharedBuild {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.builds == nil {
		s.builds = make(map[algebra.Rel]*sharedBuild)
	}
	sb, ok := s.builds[key]
	if !ok {
		sb = &sharedBuild{}
		s.builds[key] = sb
	}
	return sb
}

// NewContext creates an execution context.
func NewContext(store *storage.Store, md *algebra.Metadata) *Context {
	ctx := &Context{
		Store:    store,
		Md:       md,
		shared:   &sharedState{},
		params:   make(eval.MapEnv),
		segments: make(map[*algebra.SegmentApply]*segmentBinding),
	}
	ctx.ev = &eval.Evaluator{}
	return ctx
}

// workerClone creates a per-worker context for parallel execution: it
// shares the store, metadata, estimates, and query-wide sharedState
// (budget accounting, build cache) but owns private parameter
// bindings, segment state, and evaluator. When the coordinator is
// tracing, the clone gets a private trace map — race-free to update —
// that the worker folds into sharedState.wtrace when it finishes
// (mergeWorkerTrace), so EXPLAIN ANALYZE and Spans cover the operators
// below a parallel exchange. A worker is one serial strand: its
// Parallelism stays 0, so it never fans out again (the Apply selector
// reads Parallelism, and a worker's inner Applies must stay batched).
func (c *Context) workerClone() *Context {
	var wt map[algebra.Rel]*OpStats
	if c.trace != nil {
		wt = make(map[algebra.Rel]*OpStats)
	}
	return &Context{
		Store:        c.Store,
		Md:           c.Md,
		Estimates:    c.Estimates,
		Apply:        c.Apply,
		RowBudget:    c.RowBudget,
		Params:       c.Params,
		Ctx:          c.Ctx,
		MemBudget:    c.MemBudget,
		DisableSpill: c.DisableSpill,
		SpillDir:     c.SpillDir,
		Faults:       c.Faults,
		Fingerprint:  c.Fingerprint,
		Snap:         c.Snap,
		shared:       c.shared,
		params:       make(eval.MapEnv),
		segments:     make(map[*algebra.SegmentApply]*segmentBinding),
		ev:           &eval.Evaluator{Params: c.Params},
		trace:        wt,
		isWorker:     true,
	}
}

// mergeWorkerTrace folds a finished worker's private trace into the
// query's merged worker-side statistics. Callers must guarantee the
// worker has stopped executing (the exchange's WaitGroup/result
// channel provides the happens-before edge); the mutex serializes
// concurrent merges from sibling workers.
func (c *Context) mergeWorkerTrace(w *Context) {
	if w == nil || w.trace == nil || len(w.trace) == 0 {
		return
	}
	s := c.shared
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.wtrace == nil {
		s.wtrace = make(map[algebra.Rel]*OpStats, len(w.trace))
	}
	for rel, st := range w.trace {
		dst, ok := s.wtrace[rel]
		if !ok {
			dst = &OpStats{}
			s.wtrace[rel] = dst
		}
		dst.addFrom(st)
	}
}

// WorkersSpawned reports the parallel worker goroutines started by
// this run so far.
func (c *Context) WorkersSpawned() int64 { return c.shared.workers.Load() }

// MorselsDispatched reports the driver-scan morsels claimed by workers
// during this run so far.
func (c *Context) MorselsDispatched() int64 { return c.shared.morsels.Load() }

// table resolves a base table to the version this query reads: the
// explicit Snapshot when one is installed, else the table's published
// version pinned at first touch. Every strand of the query resolves a
// name to the same version for the run's whole lifetime.
func (c *Context) table(name string) (*storage.Version, bool) {
	if c.Snap != nil {
		return c.Snap.Table(name)
	}
	key := strings.ToLower(name)
	s := c.shared
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	if v, ok := s.pins[key]; ok {
		return v, true
	}
	tbl, ok := c.Store.Table(name)
	if !ok {
		return nil, false
	}
	v := tbl.Version()
	if s.pins == nil {
		s.pins = make(map[string]*storage.Version)
	}
	s.pins[key] = v
	return v, true
}

// ctxCheckEvery is the number of charged rows between context polls
// per strand: frequent enough that cancellation lands within
// microseconds of work, rare enough that the poll never shows up in a
// profile.
const ctxCheckEvery = 256

// checkCtx polls the run's context and maps its error into the typed
// taxonomy. Cheap when no context is installed.
func (c *Context) checkCtx() error {
	if c.Ctx == nil {
		return nil
	}
	select {
	case <-c.Ctx.Done():
		return ctxErr(c.Ctx.Err())
	default:
		return nil
	}
}

func (c *Context) charge() error {
	return c.chargeN(1)
}

// chargeN charges a batch of operator-row productions at once, keeping
// RowBudget accounting exact while amortizing the atomic add, and
// polls the context every ctxCheckEvery charged rows.
func (c *Context) chargeN(n int) error {
	if c.RowBudget > 0 && n > 0 {
		if c.shared.produced.Add(int64(n)) > c.RowBudget {
			return errRowBudget(c.RowBudget)
		}
	}
	c.tick += n
	if c.tick >= ctxCheckEvery {
		c.tick = 0
		return c.checkCtx()
	}
	return nil
}

// grantMem accounts n bytes of operator working state. over reports
// that the query is past MemBudget (the caller should spill if it
// can); err is the hard ErrMemBudget abort taken when spilling is
// disabled. st, when non-nil, accumulates the operator's own memory
// into its EXPLAIN ANALYZE stats. AllocFail fault rules force the
// over-budget path regardless of the real budget.
func (c *Context) grantMem(st *OpStats, op string, n int64) (over bool, err error) {
	if n <= 0 {
		return false, nil
	}
	used := c.shared.memUsed.Add(n)
	for {
		peak := c.shared.memPeak.Load()
		if used <= peak || c.shared.memPeak.CompareAndSwap(peak, used) {
			break
		}
	}
	if st != nil {
		atomic.AddInt64(&st.MemBytes, n)
	}
	over = c.MemBudget > 0 && used > c.MemBudget
	if c.Faults.AllocFail(op) {
		over = true
	}
	if over && c.DisableSpill {
		return true, errMemBudget(op, c.MemBudget, used)
	}
	return over, nil
}

// noteMem is grantMem for bounded buffers that cannot spill (the
// exchange's in-flight batches): usage and peak are tracked for
// observability but never abort the query — the buffers are bounded
// by construction, unlike the hash tables the budget exists to govern.
func (c *Context) noteMem(st *OpStats, n int64) {
	if n <= 0 {
		return
	}
	used := c.shared.memUsed.Add(n)
	for {
		peak := c.shared.memPeak.Load()
		if used <= peak || c.shared.memPeak.CompareAndSwap(peak, used) {
			break
		}
	}
	if st != nil {
		atomic.AddInt64(&st.MemBytes, n)
	}
}

// releaseMem returns n accounted bytes.
func (c *Context) releaseMem(n int64) {
	if n > 0 {
		c.shared.memUsed.Add(-n)
	}
}

// PeakMem reports the high-water mark of accounted memory for this
// run.
func (c *Context) PeakMem() int64 { return c.shared.memPeak.Load() }

// Spills reports the number of spill partition files this run wrote.
func (c *Context) Spills() int64 { return c.shared.spills.Load() }

// registerSpill tracks a live spill file for end-of-run cleanup.
func (c *Context) registerSpill(f *spillFile) {
	s := c.shared
	s.spillMu.Lock()
	if s.spillFiles == nil {
		s.spillFiles = make(map[*spillFile]struct{})
	}
	s.spillFiles[f] = struct{}{}
	s.spillMu.Unlock()
}

func (c *Context) unregisterSpill(f *spillFile) {
	s := c.shared
	s.spillMu.Lock()
	delete(s.spillFiles, f)
	s.spillMu.Unlock()
}

// releaseSpills removes every spill file still registered — the
// end-of-run backstop that guarantees temp-file cleanup on error,
// cancellation, and contained panics.
func (c *Context) releaseSpills() {
	s := c.shared
	s.spillMu.Lock()
	files := make([]*spillFile, 0, len(s.spillFiles))
	for f := range s.spillFiles {
		files = append(files, f)
	}
	s.spillFiles = nil
	s.spillMu.Unlock()
	for _, f := range files {
		f.remove()
	}
}

// compiler returns an expression compiler for a row layout.
func (c *Context) compiler(ords map[algebra.ColID]int) *eval.Compiler {
	return &eval.Compiler{Ev: c.ev, Ords: ords}
}

// joinPred compiles a join or Apply predicate over a (left, right) row
// pair; nil means every pair passes.
func (c *Context) joinPred(on algebra.Scalar, left, right *node) eval.CompiledPred {
	if on == nil || algebra.IsTrueConst(on) {
		return nil
	}
	comp := c.compiler(left.ords)
	comp.Ords2 = right.ords
	return comp.CompilePred(on)
}

// iterator is the operator interface (see batch.go for the contract).
type iterator interface {
	// Open prepares the iterator; it may be called again after Close to
	// re-execute (Apply re-opens its inner side per binding).
	Open() error
	// NextBatch fills b with the next window of at most b.Limit rows; an
	// empty batch means end of stream.
	NextBatch(b *Batch) error
	Close() error
}

// node is a compiled operator: an iterator plus its output layout.
type node struct {
	it   iterator
	cols []algebra.ColID
	ords map[algebra.ColID]int
}

func newNode(it iterator, cols []algebra.ColID) *node {
	ords := make(map[algebra.ColID]int, len(cols))
	for i, c := range cols {
		ords[c] = i
	}
	return &node{it: it, cols: cols, ords: ords}
}

// Result is a fully materialized query result.
type Result struct {
	Cols  []algebra.ColID
	Names []string
	Rows  []types.Row
	// PeakMem is the high-water mark of accounted operator memory.
	PeakMem int64
	// Spills counts spill partition files written during execution.
	Spills int64
	// Workers and Morsels report morsel-driven parallel activity
	// (goroutines spawned, driver-scan morsels dispatched).
	Workers int64
	Morsels int64
}

// Run compiles and executes the plan, materializing all rows. outCols
// selects and orders the result columns (nil = plan output order).
// When ctx.Parallelism > 1 an eligible subtree is executed
// morsel-parallel; row order of the result may then differ from the
// serial order (the bag of rows is identical).
func Run(ctx *Context, rel algebra.Rel, outCols []algebra.ColID) (res *Result, err error) {
	defer ctx.releaseSpills()
	defer func() {
		// Strand-level backstop: operator panics are normally contained
		// by the per-operator guard, but compilation and drain-loop code
		// outside any operator is covered here.
		if r := recover(); r != nil {
			res, err = nil, recovered("run", ctx.Fingerprint, r)
		}
	}()
	n, sel, err := prepareRun(ctx, rel, outCols)
	if err != nil {
		return nil, err
	}
	if outCols == nil {
		outCols = n.cols
	}
	if err := n.it.Open(); err != nil {
		// Close even though Open failed: a partially opened tree (e.g. a
		// sort that spawned exchange workers before its materialize loop
		// erred) still holds goroutines and buffers that Close releases.
		n.it.Close()
		return nil, err
	}
	defer n.it.Close()
	res = &Result{Cols: outCols}
	for _, c := range outCols {
		res.Names = append(res.Names, ctx.Md.Alias(c))
	}
	defer func() {
		if res != nil {
			res.PeakMem = ctx.PeakMem()
			res.Spills = ctx.Spills()
			res.Workers = ctx.WorkersSpawned()
			res.Morsels = ctx.MorselsDispatched()
		}
	}()
	// One arena allocation per batch instead of one row allocation per
	// result row.
	var b Batch
	w := len(sel)
	for {
		if err := ctx.checkCtx(); err != nil {
			return nil, err
		}
		if err := n.it.NextBatch(&b); err != nil {
			return nil, err
		}
		live := b.Len()
		if live == 0 {
			return res, nil
		}
		arena := make([]types.Datum, live*w)
		for i := 0; i < live; i++ {
			row := b.Row(i)
			out := arena[:w:w]
			arena = arena[w:]
			for j, o := range sel {
				out[j] = row[o]
			}
			res.Rows = append(res.Rows, out)
		}
	}
}

// prepareRun compiles the plan and resolves the output projection.
func prepareRun(ctx *Context, rel algebra.Rel, outCols []algebra.ColID) (*node, []int, error) {
	ctx.ev.Params = ctx.Params
	if err := ctx.checkCtx(); err != nil {
		return nil, nil, err
	}
	if ctx.Parallelism > 1 && ctx.pplan == nil {
		ctx.pplan = planParallel(ctx, rel)
	}
	n, err := compile(ctx, rel)
	if err != nil {
		return nil, nil, err
	}
	cols := outCols
	if cols == nil {
		cols = n.cols
	}
	sel := make([]int, len(cols))
	for i, c := range cols {
		o, ok := n.ords[c]
		if !ok {
			return nil, nil, fmt.Errorf("exec: output column %d (%s) not produced by plan", c, ctx.Md.Alias(c))
		}
		sel[i] = o
	}
	return n, sel, nil
}
