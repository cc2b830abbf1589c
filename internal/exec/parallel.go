package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
)

// Morsel-driven parallel execution. An algebra.Exchange in the plan
// compiles into an exchange operator (exchangeIter): the base-table scan
// at its input's streaming leaf (the "driver", StreamDriver) is split
// into fixed-size row-ordinal morsels claimed from a shared dispenser,
// and Parallelism workers each run a private copy of the input over the
// morsels they claim, streaming its result rows to the consumer in
// batches. Hash joins inside the input whose build side reads nothing
// bound outside it build their table once — the first worker to arrive
// builds, the rest probe the shared read-only table. An Apply on the
// streaming path runs on every worker over the outer rows of its
// morsels, probe or batched, with its own binding memo.
//
// Where an exchange goes is the optimizer's choice, by cost
// (internal/opt); the executor compiles one only where the plan has
// one. Aggregation is the paper's §3.3 split around it: each worker
// runs the LocalGroupBy below the exchange over its morsels, and the
// global GroupBy above it combines the partials serially.
//
// An exchange starts no more workers than its driver has morsels, and
// the one worker of a driver that fits one morsel runs on the
// consumer's strand. Parallel plans return the same bag of rows as
// serial plans; only row order may differ.

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

// reset rewinds the source over a driver table of total rows. No
// worker of its previous run may still claim from it.
func (m *morselSource) reset(total int) {
	m.total = total
	m.next.Store(0)
	m.claimed.Store(0)
}

// startWorkers is how many of want workers src can keep busy — no more
// than it has morsels, and at least one, so an empty table still runs
// the exchange's input once — counted on st and the query's counter.
func (c *Context) startWorkers(st *OpStats, src *morselSource, want int) int {
	n := max(1, min(want, (src.total+morselSize-1)/morselSize))
	if st != nil {
		st.Workers = int64(n)
	}
	c.shared.workers.Add(int64(n))
	return n
}

// countMorsels records the morsels src handed out on st and the
// query's counter.
func (c *Context) countMorsels(st *OpStats, src *morselSource) {
	claimed := src.claimed.Load()
	if st != nil {
		st.Morsels = claimed
	}
	c.shared.morsels.Add(claimed)
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

// StreamDriver returns the base-table scan an exchange over rel splits
// into morsels, found down rel's streaming (probe) side. Every operator
// on that path must stream rows — a LocalGroupBy does, as it may run
// over any partition of its input (§3.3) — and the subtrees off it
// (join build sides, Apply inner sides) must be self-contained, so each
// worker can evaluate them without outer bindings. It is the
// precondition of an exchange: the optimizer offers one only over an
// input StreamDriver accepts.
func StreamDriver(table func(string) (*catalog.Table, bool), rel algebra.Rel) (*algebra.Get, bool) {
	switch t := rel.(type) {
	case *algebra.Get:
		if len(t.Order) > 0 {
			// An ordered scan cannot be morsel-partitioned: workers
			// claim morsels in arbitrary interleaving, destroying the
			// order the Get promises (and that a downstream elided Sort
			// depends on). Stay serial.
			return nil, false
		}
		if _, ok := table(t.Table); !ok {
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
			tbl, ok := table(g.Table)
			if !ok {
				return nil, false
			}
			if CompiledAccess(tbl, g, t.Filter).Seek() {
				// A seek stays serial: a serial index seek beats a
				// parallel full scan, and over an index never built
				// it is a serial kernel scan of the whole table.
				return nil, false
			}
			return g, true
		}
		return StreamDriver(table, t.Input)
	case *algebra.Project:
		for _, it := range t.Items {
			if algebra.HasSubquery(it.Expr) {
				return nil, false
			}
		}
		return StreamDriver(table, t.Input)
	case *algebra.Join:
		// The right (build) side runs inside each worker; it must not
		// reference columns bound outside itself.
		if !algebra.OuterRefs(t.Right).Empty() {
			return nil, false
		}
		if t.On != nil && algebra.HasSubquery(t.On) {
			return nil, false
		}
		return StreamDriver(table, t.Left)
	case *algebra.Apply:
		// The inner side runs inside each worker, once per binding of
		// the worker's outer rows: it may read no segment bound by a
		// SegmentApply outside it, and the Apply no column bound outside.
		if algebra.HasForeignSegmentRefs(t.Right) || !algebra.OuterRefs(t).Empty() ||
			t.On != nil && algebra.HasSubquery(t.On) {
			return nil, false
		}
		return StreamDriver(table, t.Left)
	case *algebra.GroupBy:
		if t.Kind == algebra.LocalGroupBy {
			return StreamDriver(table, t.Input)
		}
	}
	return nil, false
}

// compileExchange lowers x to its exchange operator. An input with no
// driver on the run's tables (an index built since the plan was chosen
// turned its scan into a seek) runs serially in x's place.
func compileExchange(ctx *Context, x *algebra.Exchange) (*node, error) {
	driver, ok := StreamDriver(ctx.schema, x.Input)
	if !ok {
		return compile(ctx, x.Input)
	}
	st := ctx.traceStats(x)
	// The first worker's tree is compiled now, and the first Open runs
	// it: the exchange's layout is its. Its trace is merged at once
	// too — every counter still zero — so the strategies compile chose
	// show even when the exchange never opens (an empty build above
	// it), as a serial tree's do.
	src := newMorselSource(0)
	wctx, first, err := spawnWorker(ctx, x.Input, driver, src)
	if err != nil {
		return nil, err
	}
	ctx.mergeWorkerTrace(wctx)
	it := &exchangeIter{ctx: ctx, rel: x.Input, driver: driver, src: src,
		first: firstWorker{n: first, ctx: wctx}, workers: ctx.Parallelism, st: st}
	return newNode(it, first.cols), nil
}

// firstWorker is the worker tree an exchange compiles with itself, for
// its first Open's first worker; later Opens compile every worker's.
type firstWorker struct {
	n   *node
	ctx *Context
}

// take hands out the tree once: the tree, or a nil node after that.
func (f *firstWorker) take() (*Context, *node) {
	ctx, n := f.ctx, f.n
	*f = firstWorker{}
	return ctx, n
}

// spawnWorker compiles a private copy of rel for one worker over the
// shared morsel source and returns the compiled tree.
func spawnWorker(ctx *Context, rel algebra.Rel, driver *algebra.Get, src *morselSource) (*Context, *node, error) {
	ctx.shared.trees.Add(1)
	wctx := ctx.workerClone()
	wctx.morsels = src
	wctx.driverGet = driver
	n, err := compile(wctx, rel)
	return wctx, n, err
}

// exchangeIter runs the exchange's input rel on N workers and merges
// their row batches; the consumer pulls rows in arbitrary interleaving.
type exchangeIter struct {
	ctx     *Context
	rel     algebra.Rel
	driver  *algebra.Get
	workers int
	st      *OpStats
	first   firstWorker

	src      *morselSource // reset by every Open
	batches  chan exBatch
	cancel   chan struct{}
	stopOnce *sync.Once
	errMu    sync.Mutex
	firstErr error

	cur []types.Row
	pos int
	// solo is the one worker of a driver that fits one morsel, run on
	// the consumer's strand: with nothing to split there is nothing to
	// hand over, and its batches pass straight through.
	solo    *node
	soloCtx *Context
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
	tbl, ok := e.ctx.table(e.driver.Table)
	if !ok {
		return fmt.Errorf("exec: table %q not stored", e.driver.Table)
	}
	e.src.reset(tbl.RowCount())
	workers := e.ctx.startWorkers(e.st, e.src, e.workers)
	wctx, first := e.first.take()
	if workers == 1 {
		if first == nil {
			var err error
			if wctx, first, err = spawnWorker(e.ctx, e.rel, e.driver, e.src); err != nil {
				return err
			}
		}
		e.solo, e.soloCtx = first, wctx
		err := first.it.Open()
		if e.ctx.trace != nil {
			// The worker ran on this strand under its own trace clock:
			// the real clock is read on this one, so the exchange's Open
			// is timed with the work it did.
			e.ctx.clk.now()
		}
		return err
	}
	e.batches = make(chan exBatch, workers*2)
	e.cancel = make(chan struct{})
	e.stopOnce = &sync.Once{}
	e.firstErr = nil
	e.cur, e.pos = nil, 0

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wctx *Context, n *node) {
			defer wg.Done()
			e.runWorker(wctx, n)
		}(wctx, first)
		wctx, first = nil, nil
	}
	go func() {
		wg.Wait()
		e.ctx.countMorsels(e.st, e.src)
		close(e.batches)
	}()
	return nil
}

// runWorker runs one worker: the tree n on wctx, or, when n is nil, a
// tree it compiles.
func (e *exchangeIter) runWorker(wctx *Context, n *node) {
	// Panics in the worker's own machinery (operator panics are already
	// contained by guardIter) must surface as the exchange's error, not
	// crash the process from a bare goroutine.
	defer func() {
		if r := recover(); r != nil {
			e.fail(recovered("exchange-worker", e.ctx.Fingerprint, r))
		}
	}()
	if n == nil {
		var err error
		if wctx, n, err = spawnWorker(e.ctx, e.rel, e.driver, e.src); err != nil {
			e.fail(err)
			return
		}
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
	if e.solo != nil {
		return e.solo.it.NextBatch(b)
	}
	for e.pos >= len(e.cur) {
		batch, ok := <-e.batches
		if !ok {
			if e.ctx.trace != nil {
				// This pull waited for the last worker to finish: the
				// real clock times the wait, as it times a pull that
				// produced rows.
				e.ctx.clk.now()
			}
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
	if e.solo != nil {
		err := e.solo.it.Close()
		e.ctx.countMorsels(e.st, e.src)
		e.ctx.mergeWorkerTrace(e.soloCtx)
		e.solo, e.soloCtx = nil, nil
		return err
	}
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
