package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

func fmtErrNoTable(name string) error {
	return fmt.Errorf("exec: table %q not stored", name)
}

// Morsel-driven parallel execution. A plan's highest eligible subtree
// is compiled into an exchange operator: the base-table scan at the
// subtree's streaming leaf (the "driver") is split into fixed-size
// row-ordinal morsels claimed from a shared dispenser, and
// Parallelism workers each run a private copy of the subtree over the
// morsels they claim. Two exchange shapes exist:
//
//   - scan/join exchange (exchangeIter): workers stream result rows
//     to the consumer in batches. Hash joins inside the subtree build
//     their table once — the first worker to arrive builds, the rest
//     probe the shared read-only table.
//   - aggregation exchange (parallelAggIter): each worker accumulates
//     a partial hash-aggregate over its morsels and the coordinator
//     merges the partials, exactly the local/global decomposition of
//     the paper's §3.3 LocalGroupBy split (core.TrySplitGroupBy): the
//     per-worker table is the LocalGroupBy, the merge is the global
//     combiner.
//
// Operators whose semantics depend on run-time bindings or input
// order — Apply, SegmentApply, SegmentRef, Max1Row, Top, RowNumber,
// UnionAll, Difference, Values — stay on the serial path; Sort,
// Project, Select, and serial GroupBy may sit above the exchange
// (they are order-insensitive in bag semantics). Parallel plans
// return the same bag of rows as serial plans; only row order may
// differ.

// morselSize is the number of driver-table rows per morsel. Fixed
// size keeps the dispenser trivial while giving work-stealing-like
// balance: fast workers simply claim more morsels.
const morselSize = 1024

// morselSource hands out row-ordinal ranges [lo, hi) over the driver
// table to competing workers.
type morselSource struct {
	total   int
	next    atomic.Int64
	claimed atomic.Int64
}

func newMorselSource(total int) *morselSource {
	return &morselSource{total: total}
}

// claim returns the next unclaimed morsel; ok=false once the table is
// exhausted.
func (m *morselSource) claim() (lo, hi int, ok bool) {
	end := m.next.Add(morselSize)
	start := end - morselSize
	if start >= int64(m.total) {
		return 0, 0, false
	}
	if end > int64(m.total) {
		end = int64(m.total)
	}
	m.claimed.Add(1)
	return int(start), int(end), true
}

// parallelPlan marks the subtree compiled as a parallel exchange.
type parallelPlan struct {
	// at is the node lowered to an exchange operator.
	at algebra.Rel
	// driver is the base-table scan partitioned into morsels.
	driver *algebra.Get
	// agg, when non-nil, selects the aggregation exchange (at is this
	// GroupBy).
	agg *algebra.GroupBy
}

// planParallel finds the highest parallel-eligible subtree of rel,
// descending through operators that can consume the exchange's merged
// stream serially. Returns nil when the plan must stay serial.
func planParallel(ctx *Context, rel algebra.Rel) *parallelPlan {
	switch t := rel.(type) {
	case *algebra.Sort:
		return planParallel(ctx, t.Input)
	case *algebra.GroupBy:
		if aggMergeable(t) {
			if driver, ok := streamDriver(ctx, t.Input); ok {
				return &parallelPlan{at: rel, driver: driver, agg: t}
			}
		}
		// Not mergeable (e.g. DISTINCT aggregates): aggregate serially
		// over a parallel input stream.
		return planParallel(ctx, t.Input)
	case *algebra.Project:
		if driver, ok := streamDriver(ctx, rel); ok {
			return &parallelPlan{at: rel, driver: driver}
		}
		return planParallel(ctx, t.Input)
	case *algebra.Select:
		if driver, ok := streamDriver(ctx, rel); ok {
			return &parallelPlan{at: rel, driver: driver}
		}
		if _, isGet := t.Input.(*algebra.Get); isGet {
			// Select-over-Get compiles as one fused access path (seek);
			// descending past the Select would split them.
			return nil
		}
		return planParallel(ctx, t.Input)
	case *algebra.Join:
		if driver, ok := streamDriver(ctx, rel); ok {
			return &parallelPlan{at: rel, driver: driver}
		}
		return planParallel(ctx, t.Left)
	case *algebra.Get:
		if driver, ok := streamDriver(ctx, rel); ok {
			return &parallelPlan{at: rel, driver: driver}
		}
	}
	return nil
}

// aggMergeable reports whether every aggregate of gb can be computed
// as per-worker partials and recombined (§3.3 splittability plus avg,
// which merges through its sum+count state). DISTINCT aggregates need
// global duplicate elimination and stay serial.
func aggMergeable(gb *algebra.GroupBy) bool {
	for _, a := range gb.Aggs {
		if a.Distinct {
			return false
		}
		switch a.Func {
		case algebra.AggSum, algebra.AggCount, algebra.AggCountStar,
			algebra.AggMin, algebra.AggMax, algebra.AggAvg, algebra.AggConstAny:
		default:
			return false
		}
	}
	return true
}

// streamDriver descends the streaming (probe) side of rel looking for
// the base-table scan to morsel-partition. Every operator on the path
// must be row-streaming, and off-path subtrees (join build sides)
// must be self-contained so each worker can evaluate them without
// outer bindings.
func streamDriver(ctx *Context, rel algebra.Rel) (*algebra.Get, bool) {
	switch t := rel.(type) {
	case *algebra.Get:
		if len(t.Order) > 0 {
			// An ordered scan cannot be morsel-partitioned: workers
			// claim morsels in arbitrary interleaving, destroying the
			// order the Get promises (and that a downstream elided Sort
			// depends on). Stay serial.
			return nil, false
		}
		if _, ok := ctx.table(t.Table); !ok {
			return nil, false
		}
		return t, true
	case *algebra.Select:
		if algebra.HasSubquery(t.Filter) {
			return nil, false
		}
		if g, ok := t.Input.(*algebra.Get); ok {
			if len(g.Order) > 0 {
				return nil, false // ordered scans stay serial (see Get case)
			}
			tbl, ok := ctx.table(g.Table)
			if !ok {
				return nil, false
			}
			if index, _, _ := planSeek(tbl, g, t.Filter); index != "" {
				// A serial index seek beats a parallel full scan.
				return nil, false
			}
			return g, true
		}
		return streamDriver(ctx, t.Input)
	case *algebra.Project:
		for _, it := range t.Items {
			if algebra.HasSubquery(it.Expr) {
				return nil, false
			}
		}
		return streamDriver(ctx, t.Input)
	case *algebra.Join:
		// The right (build) side runs inside each worker; it must not
		// reference columns bound outside itself.
		if !algebra.OuterRefs(t.Right).Empty() {
			return nil, false
		}
		if t.On != nil && algebra.HasSubquery(t.On) {
			return nil, false
		}
		return streamDriver(ctx, t.Left)
	}
	return nil, false
}

// compileExchange lowers the marked subtree to its exchange operator.
func compileExchange(ctx *Context, rel algebra.Rel) (*node, error) {
	pp := ctx.pplan
	var st *OpStats
	if ctx.trace != nil {
		st = &OpStats{}
		ctx.trace[rel] = st
	}
	if pp.agg != nil {
		cols := append([]algebra.ColID(nil), pp.agg.GroupCols.Ordered()...)
		for _, a := range pp.agg.Aggs {
			cols = append(cols, a.Col)
		}
		it := &parallelAggIter{ctx: ctx, gb: pp.agg, driver: pp.driver,
			workers: ctx.Parallelism, st: st}
		return newNode(it, cols), nil
	}
	// Compile a throwaway worker tree to learn the subtree's output
	// layout (cheap: no execution). Worker trees are recompiled per
	// goroutine at Open.
	probe, err := compile(ctx.workerClone(), rel)
	if err != nil {
		return nil, err
	}
	it := &exchangeIter{ctx: ctx, rel: rel, driver: pp.driver,
		cols: probe.cols, workers: ctx.Parallelism, st: st}
	return newNode(it, probe.cols), nil
}

// driverTable resolves the driver Get's stored table.
func driverTable(ctx *Context, g *algebra.Get) (storageTable, int, bool) {
	tbl, ok := ctx.table(g.Table)
	if !ok {
		return nil, 0, false
	}
	return tbl, tbl.RowCount(), true
}

// spawnWorker compiles a private copy of rel for one worker over the
// shared morsel source and returns the compiled tree.
func spawnWorker(ctx *Context, rel algebra.Rel, driver *algebra.Get, src *morselSource) (*Context, *node, error) {
	wctx := ctx.workerClone()
	wctx.morsels = src
	wctx.driverGet = driver
	n, err := compile(wctx, rel)
	return wctx, n, err
}

// exchangeIter runs a streaming subtree on N workers and merges their
// row batches; the consumer pulls rows in arbitrary interleaving.
type exchangeIter struct {
	ctx     *Context
	rel     algebra.Rel
	driver  *algebra.Get
	cols    []algebra.ColID
	workers int
	st      *OpStats

	src      *morselSource
	batches  chan exBatch
	cancel   chan struct{}
	stopOnce *sync.Once
	errMu    sync.Mutex
	firstErr error

	cur []types.Row
	pos int
}

// exBatch is one worker-to-consumer hand-off: the rows plus their
// accounted bytes (released when the consumer takes ownership). The
// exchange buffer is bounded — workers*2 batches in the channel — so
// its memory is tracked against the budget but never spilled.
type exBatch struct {
	rows  []types.Row
	bytes int64
}

func (e *exchangeIter) fail(err error) {
	e.errMu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.errMu.Unlock()
	e.stop()
}

func (e *exchangeIter) stop() {
	e.stopOnce.Do(func() { close(e.cancel) })
}

func (e *exchangeIter) errSeen() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

func (e *exchangeIter) Open() error {
	_, total, ok := driverTable(e.ctx, e.driver)
	if !ok {
		return fmtErrNoTable(e.driver.Table)
	}
	e.src = newMorselSource(total)
	e.batches = make(chan exBatch, e.workers*2)
	e.cancel = make(chan struct{})
	e.stopOnce = &sync.Once{}
	e.firstErr = nil
	e.cur, e.pos = nil, 0
	if e.st != nil {
		e.st.Workers = int64(e.workers)
	}
	e.ctx.shared.workers.Add(int64(e.workers))

	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runWorker()
		}()
	}
	go func() {
		wg.Wait()
		claimed := e.src.claimed.Load()
		if e.st != nil {
			e.st.Morsels = claimed
		}
		e.ctx.shared.morsels.Add(claimed)
		close(e.batches)
	}()
	return nil
}

func (e *exchangeIter) runWorker() {
	// Panics in the worker's own machinery (operator panics are already
	// contained by guardIter) must surface as the exchange's error, not
	// crash the process from a bare goroutine.
	defer func() {
		if r := recover(); r != nil {
			e.fail(recovered("exchange-worker", e.ctx.Fingerprint, r))
		}
	}()
	wctx, n, err := spawnWorker(e.ctx, e.rel, e.driver, e.src)
	if err != nil {
		e.fail(err)
		return
	}
	// Fold this worker's private trace into the query's merged
	// worker-side statistics once the worker is done (the enclosing
	// WaitGroup publishes the merge to the consumer before the batch
	// channel closes).
	defer e.ctx.mergeWorkerTrace(wctx)
	if err := n.it.Open(); err != nil {
		n.it.Close()
		e.fail(err)
		return
	}
	defer n.it.Close()
	governed := e.ctx.MemBudget > 0 || e.ctx.Faults != nil
	// Workers forward whole subtree batches: the channel moves
	// O(batches) messages. Row headers are copied out of the worker's
	// reused batch buffers before the hand-off.
	var wb Batch
	for {
		if err := n.it.NextBatch(&wb); err != nil {
			e.fail(err)
			return
		}
		live := wb.Len()
		if live == 0 {
			return
		}
		rows := make([]types.Row, live)
		var bb int64
		for i := range rows {
			rows[i] = wb.Row(i)
			if governed {
				bb += types.RowBytes(rows[i])
			}
		}
		e.ctx.noteMem(e.st, bb)
		select {
		case e.batches <- exBatch{rows: rows, bytes: bb}:
		case <-e.cancel:
			e.ctx.releaseMem(bb)
			return
		}
	}
}

// NextBatch serves the current worker batch in windows of the
// consumer's row cap, taking the next one from the channel (workers
// hand off ownership on send) when it is used up.
func (e *exchangeIter) NextBatch(b *Batch) error {
	for e.pos >= len(e.cur) {
		batch, ok := <-e.batches
		if !ok {
			b.setEmpty()
			return e.errSeen()
		}
		if batch.bytes > 0 {
			e.ctx.releaseMem(batch.bytes)
		}
		e.cur, e.pos = batch.rows, 0
	}
	b.serve(e.cur, &e.pos)
	return nil
}

func (e *exchangeIter) Close() error {
	if e.batches != nil {
		e.stop()
		// Drain so blocked workers exit; the closer goroutine closes
		// the channel once all workers are done.
		for batch := range e.batches {
			if batch.bytes > 0 {
				e.ctx.releaseMem(batch.bytes)
			}
		}
		e.batches = nil
	}
	return nil
}

// parallelAggIter computes a GroupBy as per-worker partial hash
// aggregates over morsels, merged by the coordinator — the §3.3
// LocalGroupBy decomposition executed physically: worker tables are
// the local aggregates, the merge applies the global combiners
// (aggState.mergeFor).
type parallelAggIter struct {
	ctx     *Context
	gb      *algebra.GroupBy
	driver  *algebra.Get
	workers int
	st      *OpStats

	out []types.Row
	pos int
}

func (p *parallelAggIter) Open() error {
	_, total, ok := driverTable(p.ctx, p.driver)
	if !ok {
		return fmtErrNoTable(p.driver.Table)
	}
	src := newMorselSource(total)
	if p.st != nil {
		p.st.Workers = int64(p.workers)
	}
	p.ctx.shared.workers.Add(int64(p.workers))
	type aggResult struct {
		tbl  *aggTable
		ords map[algebra.ColID]int
		err  error
	}
	results := make(chan aggResult, p.workers)
	sizeHint := p.ctx.Estimates.sizeHint(p.gb, aggPresizeMax)
	for w := 0; w < p.workers; w++ {
		go func() {
			var res aggResult
			defer func() {
				// Contain panics from the worker's own machinery and
				// always deliver a result so the coordinator never hangs.
				if r := recover(); r != nil {
					res = aggResult{err: recovered("agg-worker", p.ctx.Fingerprint, r)}
				}
				results <- res
			}()
			wctx, n, err := spawnWorker(p.ctx, p.gb.Input, p.driver, src)
			if err != nil {
				res.err = err
				return
			}
			// Merge the worker's private trace when it finishes; the
			// results channel hand-off publishes it to the coordinator.
			defer p.ctx.mergeWorkerTrace(wctx)
			if err := n.it.Open(); err != nil {
				n.it.Close()
				res.err = err
				return
			}
			tbl := newAggTable(p.gb.GroupCols.Len(), len(p.gb.Aggs), sizeHint)
			tbl.govern(wctx, p.st, 0)
			err = tbl.consume(wctx, n, p.gb, newAggVec(wctx, n.ords, p.gb))
			if cerr := n.it.Close(); err == nil {
				err = cerr
			}
			res = aggResult{tbl: tbl, ords: n.ords, err: err}
		}()
	}
	// Merge partial tables. Workers share the query budget, so a worker
	// that crossed it holds resident partials plus raw-row spill files
	// for its unseen groups; the merged table seeds from every worker's
	// partials (those groups stay resident and complete) and the spill
	// files drain through the merged table afterwards — a group spilled
	// by one worker but resident in another simply keeps aggregating in
	// place.
	merged := newAggTable(p.gb.GroupCols.Len(), len(p.gb.Aggs), sizeHint)
	merged.govern(p.ctx, p.st, 0)
	var firstErr error
	var spilled []*spillSet
	var ords map[algebra.ColID]int
	for w := 0; w < p.workers; w++ {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if r.tbl == nil {
			continue
		}
		if r.err == nil {
			merged.merge(r.tbl, p.gb)
			if r.tbl.spill != nil {
				spilled = append(spilled, r.tbl.spill)
				r.tbl.spill = nil
			}
			ords = r.ords
		} else if r.tbl.spill != nil {
			r.tbl.spill.dropAll()
			r.tbl.spill = nil
		}
		r.tbl.release()
	}
	if p.st != nil {
		p.st.Morsels = src.claimed.Load()
	}
	p.ctx.shared.morsels.Add(src.claimed.Load())
	fail := func(err error) error {
		for _, ss := range spilled {
			ss.dropAll()
		}
		if merged.spill != nil {
			merged.spill.dropAll()
			merged.spill = nil
		}
		merged.release()
		return err
	}
	if firstErr != nil {
		return fail(firstErr)
	}
	var keyOrds []int
	var av *aggVec
	if len(spilled) > 0 {
		groupCols := p.gb.GroupCols.Ordered()
		keyOrds = make([]int, len(groupCols))
		for i, c := range groupCols {
			o, ok := ords[c]
			if !ok {
				return fail(fmt.Errorf("exec: grouping column %d missing from worker input", c))
			}
			keyOrds[i] = o
		}
		av = newAggVec(p.ctx, ords, p.gb)
		for _, ss := range spilled {
			if err := ss.finish(); err != nil {
				return fail(err)
			}
			for i, f := range ss.parts {
				if f == nil {
					continue
				}
				if err := merged.accumFile(p.ctx, p.gb, av, keyOrds, f); err != nil {
					return fail(err)
				}
				f.drop(p.ctx)
				ss.parts[i] = nil
			}
		}
	}
	p.out = merged.render(p.gb, p.out)
	if merged.spill != nil {
		var err error
		p.out, err = merged.drainSpill(p.ctx, p.gb, av, keyOrds, p.out)
		if err != nil {
			return fail(err)
		}
	}
	merged.release()
	p.pos = 0
	return nil
}

// NextBatch serves the merged result in windows.
func (p *parallelAggIter) NextBatch(b *Batch) error {
	b.serve(p.out, &p.pos)
	return nil
}

func (p *parallelAggIter) Close() error { return nil }

// morselScanIter is the driver-table scan of one worker: it claims
// morsels from the shared source and scans their row ranges with the
// access predicate applied.
type morselScanIter struct {
	tbl  storageTable
	src  *morselSource
	filt filterPred

	lo, hi int
}

func (s *morselScanIter) Open() error {
	s.lo, s.hi = 0, 0
	return nil
}

// NextBatch serves each claimed morsel as whole-batch windows of the
// driver table (morselSize == BatchSize, so normally one batch per
// claim), filtered with the vector conjuncts.
func (s *morselScanIter) NextBatch(b *Batch) error {
	rows := s.tbl.AllRows()
	for {
		if s.lo >= s.hi {
			lo, hi, ok := s.src.claim()
			if !ok {
				b.setEmpty()
				return nil
			}
			s.lo, s.hi = lo, hi
		}
		end := min(s.lo+b.limit(), s.hi)
		cand := rows[s.lo:end]
		s.lo = end
		if ok, err := s.filt.emit(b, cand); ok || err != nil {
			return err
		}
	}
}

func (s *morselScanIter) Close() error { return nil }
