package exec

// Binding-batch Apply (ISSUE 6). Correlated plans the rewrites cannot
// remove (class-3 / Max1row exceptions, cost-retained index-lookup
// plans) execute their inner expression once per outer row under the
// sequential applyIter. The batched mode here collects outer rows,
// deduplicates their
// correlation bindings with a NULL-aware key (types.Equal's grouping
// semantics: NULL matches NULL), executes the inner side once per
// *distinct* binding, memoizes the results in a bounded,
// memory-accounted cache, and replays them per outer row in order —
// Guravannavar's state-retention invocation, adapted to Volcano
// iterators. The parallel strategy additionally spreads the distinct
// missing bindings of each batch over a worker pool built from the
// morsel-execution worker-context split.
//
// Semantics are preserved exactly against the sequential path:
//   - Outer rows are emitted in outer order; a memoized inner result
//     replays in its original production order (the engine's
//     operators, including hash aggregation, emit deterministically),
//     so serial batched output is row-for-row identical.
//   - In batched mode inner executions happen lazily at the first
//     outer row that needs the binding, so errors — including Max1row
//     cardinality exceptions and injected faults — surface at the same
//     outer row as sequential execution. (Parallel mode executes a
//     batch's bindings eagerly and may surface such an error earlier;
//     the query fails either way.)
//   - Semi/Anti applies with a trivially-true On stop each inner
//     execution at the first row, matching the sequential path's early
//     Close.
//   - Cache entries are keyed on the binding signature only (the left
//     output columns the inner can observe, algebra.ApplyBindingCols);
//     ambient parameters and segment bindings from enclosing scopes
//     are constant within one Open window, and the cache is reset on
//     every Open and released on Close, so signature keys are always
//     sufficient.

import (
	"fmt"
	"sync"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

const (
	// applyBatchRows is the number of outer rows collected per binding
	// batch.
	applyBatchRows = 1024
	// applyCacheBytes bounds the binding cache's retained footprint
	// even when no memory budget is configured.
	applyCacheBytes = 8 << 20
)

// compileApply lowers correlated execution. The right side is compiled
// once; how often it executes depends on the strategy selector:
// sequentially it re-opens per outer row with the left row's columns
// installed as parameters (inner index seeks pick the parameters up at
// Open — the paper's correlated index-lookup plan); batched it
// executes once per distinct binding per batch.
func compileApply(ctx *Context, a *algebra.Apply) (*node, error) {
	left, err := compile(ctx, a.Left)
	if err != nil {
		return nil, err
	}
	right, err := compile(ctx, a.Right)
	if err != nil {
		return nil, err
	}
	outCols := joinOutCols(a.Kind, left, right)
	sig, ambient := algebra.ApplyBindingCols(a)
	strat := ctx.applyStrategy(a)
	st := ctx.traceStats(a)
	if st != nil {
		st.Strategy = strat.String()
	}
	if strat == applySequential {
		var spool *spoolIter
		if sig.Empty() {
			// An inner side that does not reference the outer row is
			// invariant across re-opens; spool it (SQL Server's lazy
			// spool does the same under correlated execution).
			spool = &spoolIter{ctx: ctx, in: right.it, st: st}
			right = newNode(spool, right.cols)
		}
		it := &applyIter{ctx: ctx, left: left, right: right, spool: spool, st: st,
			em: newJoinEmit(ctx, a.Kind, a.On, left, right),
			lr: rowReader{it: left.it, charge: ctx}}
		it.next, it.em.more = it.probe, it.window
		return newNode(it, outCols), nil
	}
	sigCols := sig.Ordered()
	sigOrds := make([]int, len(sigCols))
	for i, c := range sigCols {
		o, ok := left.ords[c]
		if !ok {
			return nil, fmt.Errorf("exec: apply binding column %d not produced by outer side", c)
		}
		sigOrds[i] = o
	}
	it := &batchApplyIter{
		ctx:         ctx,
		a:           a,
		left:        left,
		right:       right,
		sigCols:     sigCols,
		sigOrds:     sigOrds,
		ambientCols: ambient.Ordered(),
		parallel:    strat == applyParallel,
		st:          st,
		earlyOut:    existenceOnly(a),
		em:          newJoinEmit(ctx, a.Kind, a.On, left, right),
	}
	it.next = it.probe
	return newNode(it, outCols), nil
}

// applyEntry is one memoized binding: the signature values and the
// inner result rows they produced.
type applyEntry struct {
	key   types.Row
	rows  []types.Row
	bytes int64
	// pinned marks entries referenced by the in-flight batch; pinned
	// entries are never evicted.
	pinned bool
	// retained marks entries that survive batch end (within the cache
	// cap and memory budget). Transient entries still deduplicate
	// executions within their own batch.
	retained bool
}

// bindingCache memoizes inner results per distinct binding. It is
// bounded two ways: a byte cap on the retained set (evicting
// oldest-first, skipping pinned entries), and the query-wide memory
// accountant — every resident entry's bytes are granted while it
// lives and released when dropped. When the query is over budget the
// cache degrades instead of spilling: the retained set is shed and new
// entries stay transient (recompute beats writing memo files). Under
// DisableSpill the accountant's hard cap aborts as for any operator.
type bindingCache struct {
	ctx      *Context
	st       *OpStats
	governed bool
	cap      int64
	ords     []int
	buckets  map[uint64][]*applyEntry
	order    []*applyEntry
	pinned   []*applyEntry
	// bytes is the retained set's footprint (transient entries are
	// accounted but not counted against the cap).
	bytes int64
}

func newBindingCache(ctx *Context, st *OpStats, keyWidth int) *bindingCache {
	capBytes := int64(applyCacheBytes)
	if ctx.MemBudget > 0 && ctx.MemBudget/2 < capBytes {
		capBytes = ctx.MemBudget / 2
	}
	ords := make([]int, keyWidth)
	for i := range ords {
		ords[i] = i
	}
	return &bindingCache{
		ctx:      ctx,
		st:       st,
		governed: ctx.MemBudget > 0 || ctx.Faults != nil,
		cap:      capBytes,
		ords:     ords,
		buckets:  make(map[uint64][]*applyEntry),
	}
}

func entryBytes(key types.Row, rows []types.Row) int64 {
	n := int64(64) + types.RowBytes(key)
	for _, r := range rows {
		n += types.RowBytes(r)
	}
	return n
}

func (bc *bindingCache) lookup(key types.Row) *applyEntry {
	h := types.HashRow(key, bc.ords)
	for _, e := range bc.buckets[h] {
		if types.EqualRows(e.key, bc.ords, key, bc.ords) {
			return e
		}
	}
	return nil
}

func (bc *bindingCache) pin(e *applyEntry) {
	if !e.pinned {
		e.pinned = true
		bc.pinned = append(bc.pinned, e)
	}
}

// add inserts an executed binding's result, pinned for the current
// batch, and decides retention under the cap and budget.
func (bc *bindingCache) add(key types.Row, rows []types.Row) (*applyEntry, error) {
	e := &applyEntry{key: key, rows: rows, bytes: entryBytes(key, rows)}
	over := false
	if bc.governed {
		var err error
		over, err = bc.ctx.grantMem(bc.st, "Apply", e.bytes)
		if err != nil {
			// Hard cap (DisableSpill): balance the accountant before
			// aborting — the entry never becomes resident.
			bc.ctx.releaseMem(e.bytes)
			return nil, err
		}
	}
	bc.pin(e)
	h := types.HashRow(key, bc.ords)
	bc.buckets[h] = append(bc.buckets[h], e)
	bc.order = append(bc.order, e)
	if over {
		// Query-wide pressure: shed the retained set and keep this
		// entry for its batch only.
		bc.evictTo(0)
		return e, nil
	}
	if bc.bytes+e.bytes > bc.cap {
		bc.evictTo(bc.cap - e.bytes)
	}
	if bc.bytes+e.bytes <= bc.cap {
		e.retained = true
		bc.bytes += e.bytes
	}
	return e, nil
}

// unlink removes the entry from its hash bucket and returns its
// accounted bytes. Callers maintain bc.order.
func (bc *bindingCache) unlink(e *applyEntry) {
	h := types.HashRow(e.key, bc.ords)
	bkt := bc.buckets[h]
	for i, x := range bkt {
		if x == e {
			bc.buckets[h] = append(bkt[:i], bkt[i+1:]...)
			break
		}
	}
	if e.retained {
		e.retained = false
		bc.bytes -= e.bytes
	}
	if bc.governed {
		bc.ctx.releaseMem(e.bytes)
	}
}

// evictTo drops unpinned retained entries oldest-first until the
// retained footprint is at most target.
func (bc *bindingCache) evictTo(target int64) {
	if bc.bytes <= target {
		return
	}
	keep := bc.order[:0]
	for _, e := range bc.order {
		if bc.bytes > target && e.retained && !e.pinned {
			bc.unlink(e)
			continue
		}
		keep = append(keep, e)
	}
	bc.order = keep
}

// endBatch unpins the in-flight batch's entries and drops the ones
// that were not retained.
func (bc *bindingCache) endBatch() {
	for _, e := range bc.pinned {
		e.pinned = false
	}
	bc.pinned = bc.pinned[:0]
	keep := bc.order[:0]
	for _, e := range bc.order {
		if !e.retained {
			bc.unlink(e)
			continue
		}
		keep = append(keep, e)
	}
	bc.order = keep
}

// reset releases every entry and its accounted memory.
func (bc *bindingCache) reset() {
	if bc.governed {
		var total int64
		for _, e := range bc.order {
			total += e.bytes
		}
		bc.ctx.releaseMem(total)
	}
	for _, e := range bc.pinned {
		e.pinned = false
	}
	bc.pinned = bc.pinned[:0]
	bc.order = bc.order[:0]
	bc.bytes = 0
	for h := range bc.buckets {
		delete(bc.buckets, h)
	}
}

// batchApplyIter is the binding-batch Apply operator.
type batchApplyIter struct {
	ctx         *Context
	a           *algebra.Apply
	left, right *node
	sigCols     []algebra.ColID
	sigOrds     []int
	ambientCols []algebra.ColID
	parallel    bool
	st          *OpStats
	// earlyOut stops inner drains at the first row (existenceOnly).
	earlyOut bool

	em    joinEmit
	next  probeFn
	cache *bindingCache
	scope paramScope
	lb    Batch // outer-side pulls
	rb    Batch // inner-side drains on this strand

	// current batch of outer rows, their (lazily resolved) entries, and
	// the emission position among them.
	lrows   []types.Row
	entries []*applyEntry
	cur     int
	lEOF    bool

	pool *applyPool
}

func (b *batchApplyIter) Open() error {
	if b.cache == nil {
		b.cache = newBindingCache(b.ctx, b.st, len(b.sigCols))
	}
	// Ambient parameters and segment bindings from enclosing scopes are
	// fixed only for the duration of one Open window; entries keyed on
	// the signature alone must not outlive it.
	b.cache.reset()
	b.em.reset()
	b.lrows = b.lrows[:0]
	b.entries = b.entries[:0]
	b.cur, b.lEOF = 0, false
	return b.left.it.Open()
}

func (b *batchApplyIter) Close() error {
	if b.cache != nil {
		b.cache.reset()
	}
	b.lrows = nil
	b.entries = nil
	if b.pool != nil {
		b.pool.close(b.ctx)
		b.pool = nil
	}
	return b.left.it.Close()
}

// refill collects the next batch of outer rows; in parallel mode it
// also resolves and executes the batch's distinct bindings eagerly.
func (b *batchApplyIter) refill() error {
	b.cache.endBatch()
	b.lrows = b.lrows[:0]
	b.entries = b.entries[:0]
	b.cur = 0
	for !b.lEOF && len(b.lrows) < applyBatchRows {
		b.lb.Limit = applyBatchRows - len(b.lrows)
		if err := b.left.it.NextBatch(&b.lb); err != nil {
			return err
		}
		n := b.lb.Len()
		if n == 0 {
			b.lEOF = true
			break
		}
		if err := b.ctx.chargeN(n); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			b.lrows = append(b.lrows, b.lb.Row(i))
			b.entries = append(b.entries, nil)
		}
	}
	if b.parallel && len(b.lrows) > 0 {
		return b.prefetch()
	}
	return nil
}

func (b *batchApplyIter) sigKey(lrow types.Row) types.Row {
	key := make(types.Row, len(b.sigOrds))
	for i, o := range b.sigOrds {
		key[i] = lrow[o]
	}
	return key
}

// runInner executes an Apply's inner side once, under the bindings
// currently installed, and materializes its rows for the binding cache
// — on this strand or on a parallel worker's private tree. With first
// set it asks for one row and stops: all a Semi/Anti Apply with a
// trivially-true On needs is existence.
func runInner(it iterator, rb *Batch, first bool) (rows []types.Row, err error) {
	if err := it.Open(); err != nil {
		it.Close()
		return nil, err
	}
	rb.Limit = 0
	if first {
		rb.Limit = 1
	}
	for {
		if err := it.NextBatch(rb); err != nil {
			it.Close()
			return nil, err
		}
		n := rb.Len()
		for i := 0; i < n; i++ {
			rows = append(rows, rb.Row(i))
		}
		if n == 0 || first {
			return rows, it.Close()
		}
	}
}

// existenceOnly reports whether an Apply needs only the first inner row
// per binding: Semi/Anti with a trivially-true On.
func existenceOnly(a *algebra.Apply) bool {
	return (a.Kind == algebra.SemiJoin || a.Kind == algebra.AntiSemiJoin) &&
		(a.On == nil || algebra.IsTrueConst(a.On))
}

// runBinding executes the inner side once on this strand's tree with
// the binding installed, materializing its rows.
func (b *batchApplyIter) runBinding(key types.Row) ([]types.Row, error) {
	b.scope.bind(b.ctx.params, b.sigCols, key)
	defer b.scope.unbind(b.ctx.params)
	return runInner(b.right.it, &b.rb, b.earlyOut)
}

// fetch resolves one outer row's binding lazily: a cache hit replays,
// a miss executes the inner side here and now, so error order matches
// sequential execution exactly.
func (b *batchApplyIter) fetch(lrow types.Row) (*applyEntry, error) {
	key := b.sigKey(lrow)
	if b.st != nil {
		b.st.Bindings++
	}
	if e := b.cache.lookup(key); e != nil {
		b.cache.pin(e)
		return e, nil
	}
	if b.st != nil {
		b.st.InnerExecs++
	}
	rows, err := b.runBinding(key)
	if err != nil {
		return nil, err
	}
	return b.cache.add(key, rows)
}

// probe yields the next outer row of the batch with its binding's
// memoized inner result, collecting the next batch when this one is
// used up.
func (b *batchApplyIter) probe(int) (types.Row, []types.Row, bool, error) {
	if b.cur >= len(b.lrows) {
		if err := b.refill(); err != nil || len(b.lrows) == 0 {
			return nil, nil, false, err
		}
	}
	lrow, e := b.lrows[b.cur], b.entries[b.cur]
	if e == nil {
		var err error
		if e, err = b.fetch(lrow); err != nil {
			return nil, nil, false, err
		}
	}
	b.cur++
	return lrow, e.rows, true, nil
}

func (b *batchApplyIter) NextBatch(out *Batch) error { return b.em.run(out, b.next) }

// applyPool holds persistent per-worker contexts and compiled inner
// trees for the parallel strategy. Goroutines are spawned per batch
// and joined before prefetch returns, so no goroutine outlives a
// batch, let alone the query.
type applyPool struct {
	workers []*applyWorker
}

type applyWorker struct {
	wctx *Context
	tree *node
	rb   Batch
}

func (p *applyPool) close(ctx *Context) {
	for _, w := range p.workers {
		ctx.mergeWorkerTrace(w.wctx)
	}
	p.workers = nil
}

func (b *batchApplyIter) ensurePool(n int) error {
	if b.pool == nil {
		b.pool = &applyPool{}
	}
	for len(b.pool.workers) < n {
		wctx := b.ctx.workerClone()
		// Unlike morsel workers, apply workers execute a correlated
		// subtree: hash-join builds inside it may depend on the binding,
		// so the cross-worker build cache must stay off (isWorker gates
		// it) and every worker keeps private builds.
		wctx.isWorker = false
		tree, err := compile(wctx, b.a.Right)
		if err != nil {
			return err
		}
		b.pool.workers = append(b.pool.workers, &applyWorker{wctx: wctx, tree: tree})
	}
	return nil
}

// run executes one binding on this worker's private tree.
func (w *applyWorker) run(b *batchApplyIter, key types.Row) ([]types.Row, error) {
	for k := range w.wctx.params {
		delete(w.wctx.params, k)
	}
	// Ambient parameters from enclosing scopes are read-only here: the
	// coordinator is blocked joining the batch, so concurrent reads of
	// b.ctx.params are safe.
	for _, c := range b.ambientCols {
		if v, ok := b.ctx.params[c]; ok {
			w.wctx.params[c] = v
		}
	}
	for i, c := range b.sigCols {
		w.wctx.params[c] = key[i]
	}
	return runInner(w.tree.it, &w.rb, b.earlyOut)
}

// prefetch resolves every outer row of the collected batch against the
// cache and executes the distinct missing bindings across the worker
// pool before emission starts.
func (b *batchApplyIter) prefetch() error {
	var (
		pendKeys []types.Row
		pendRows [][]int
		pendIdx  = make(map[uint64][]int)
	)
	for i, lrow := range b.lrows {
		key := b.sigKey(lrow)
		if b.st != nil {
			b.st.Bindings++
		}
		if e := b.cache.lookup(key); e != nil {
			b.cache.pin(e)
			b.entries[i] = e
			continue
		}
		h := types.HashRow(key, b.cache.ords)
		found := -1
		for _, pi := range pendIdx[h] {
			if types.EqualRows(pendKeys[pi], b.cache.ords, key, b.cache.ords) {
				found = pi
				break
			}
		}
		if found < 0 {
			found = len(pendKeys)
			pendKeys = append(pendKeys, key)
			pendRows = append(pendRows, nil)
			pendIdx[h] = append(pendIdx[h], found)
		}
		pendRows[found] = append(pendRows[found], i)
	}
	if len(pendKeys) == 0 {
		return nil
	}
	if b.st != nil {
		b.st.InnerExecs += int64(len(pendKeys))
	}
	results := make([][]types.Row, len(pendKeys))
	nw := b.ctx.Parallelism
	if nw < 2 {
		nw = 2
	}
	if nw > len(pendKeys) {
		nw = len(pendKeys)
	}
	if nw <= 1 {
		rows, err := b.runBinding(pendKeys[0])
		if err != nil {
			return err
		}
		results[0] = rows
	} else {
		if err := b.ensurePool(nw); err != nil {
			return err
		}
		b.ctx.shared.workers.Add(int64(nw))
		if b.st != nil {
			b.st.Workers += int64(nw)
		}
		idxCh := make(chan int)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		fail := func(err error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		failed := func() bool {
			mu.Lock()
			defer mu.Unlock()
			return firstErr != nil
		}
		for wi := 0; wi < nw; wi++ {
			w := b.pool.workers[wi]
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						fail(recovered("apply-worker", b.ctx.Fingerprint, r))
					}
				}()
				for pi := range idxCh {
					if failed() {
						continue
					}
					rows, err := w.run(b, pendKeys[pi])
					if err != nil {
						fail(err)
						continue
					}
					results[pi] = rows
				}
			}()
		}
		for pi := range pendKeys {
			idxCh <- pi
		}
		close(idxCh)
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
	}
	for pi, key := range pendKeys {
		e, err := b.cache.add(key, results[pi])
		if err != nil {
			return err
		}
		for _, i := range pendRows[pi] {
			b.entries[i] = e
		}
	}
	return nil
}
