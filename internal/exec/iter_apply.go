package exec

// Apply strategies. Correlated plans the rewrites cannot remove
// (class-3 / Max1row exceptions, cost-retained index-lookup plans) run
// under one of two, chosen from the plan and the catalog alone
// (ApplyStrategy):
//   - probe: an inner side that is an index seek on columns of the
//     outer row (probeSeek) is looked up a batch of outer rows at a
//     time, typed, with nothing bound, opened or closed per row
//     (probeIter);
//   - batched: outer rows are collected, their correlation bindings
//     deduplicated with a NULL-aware key (types.Equal's grouping
//     semantics: NULL matches NULL), the inner side executed once per
//     *distinct* binding, and the results memoized in a bounded,
//     memory-accounted cache and replayed per outer row in order —
//     Guravannavar's state-retention invocation, adapted to Volcano
//     iterators (batchApplyIter).
//
// Whether the batched Apply memoizes is an observation it makes while
// it runs, never an estimate: when an Open's first full batch (or its
// last, if the outer side ends first) holds nearly one distinct binding
// per row — fewer than applyDedupMinRatio rows per distinct binding —
// the cache cannot pay for itself, and that Open from that batch on
// runs each binding without a cache lookup, pinning or retention.
//
// An Apply has no concurrency of its own. Below an exchange the plan
// put over it (parallel.go), each worker runs its own Apply, probe or
// batched, with its own binding memo, over the outer rows of the
// morsels it claims.
//
// An uncorrelated inner side (an empty binding signature) is one cache
// entry that stays for the whole Open whatever the cache's cap, so it
// runs once per Open, like a spool.
//
// Semantics (the probe's in probeIter's comment):
//   - Outer rows are emitted in outer order; a memoized inner result
//     replays in its original production order (the engine's
//     operators, including hash aggregation, emit deterministically),
//     so serial output is the same rows in the same order whether or
//     not the Apply memoizes.
//   - Inner executions happen lazily at the first outer row that
//     needs the binding, so errors — including Max1row cardinality
//     exceptions and injected faults — surface at that outer row.
//   - Semi/Anti applies with a trivially-true On stop each inner
//     execution at the first row.
//   - Outer pulls ask for at most the consumer's row cap, so a reader
//     that stops early has not made the inner side run far ahead.
//   - Cache entries are keyed on the binding signature only (the left
//     output columns the inner can observe, algebra.ApplyBindingCols);
//     ambient parameters and segment bindings from enclosing scopes
//     are constant within one Open window, and the cache is reset on
//     every Open and released on Close, so signature keys are always
//     sufficient.

import (
	"fmt"
	"slices"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

const (
	// applyBatchRows is the number of outer rows collected per binding
	// batch.
	applyBatchRows = 1024
	// applyCacheBytes bounds the binding cache's retained footprint
	// even when no memory budget is configured.
	applyCacheBytes = 8 << 20
	// applyDedupMinRatio is the outer rows per distinct binding, in an
	// Open's first full batch, below which the Apply stops memoizing:
	// nearly every binding is unique, so the cache never hits and its
	// hashing and retention are pure overhead.
	applyDedupMinRatio = 1.25
)

// compileApply lowers correlated execution. As a probe the right side
// is not compiled at all; batched it is compiled once and executes once
// per distinct binding per batch.
func compileApply(ctx *Context, a *algebra.Apply) (*node, error) {
	left, err := compile(ctx, a.Left)
	if err != nil {
		return nil, err
	}
	strat := applyStrategy(ctx.schema, a)
	if ctx.ForceBatched {
		strat = "batched"
	}
	st := ctx.traceStats(a)
	if st != nil {
		st.Strategy = strat
	}
	if strat == "probe" {
		return compileProbe(ctx, a, left, st)
	}
	right, err := compile(ctx, a.Right)
	if err != nil {
		return nil, err
	}
	sigCols := algebra.ApplyBindingCols(a).Ordered()
	sigOrds := make([]int, len(sigCols))
	for i, c := range sigCols {
		o, ok := left.ords[c]
		if !ok {
			return nil, fmt.Errorf("exec: apply binding column %d not produced by outer side", c)
		}
		sigOrds[i] = o
	}
	it := &batchApplyIter{
		ctx:      ctx,
		left:     left,
		right:    right,
		sigCols:  sigCols,
		sigOrds:  sigOrds,
		st:       st,
		earlyOut: existenceOnly(a),
		em:       newJoinEmit(ctx, a.Kind, a.On, left, right),
	}
	it.next = it.probe
	return newNode(it, joinOutCols(a.Kind, left, right)), nil
}

// compileProbe lowers an Apply of probeSeek's shape to a probeIter over
// its left side; the inner side is not compiled. The right layout is
// the Get's columns: under a Project the Apply returns none of them. A
// traced run names the seek on the Select's span, as EXPLAIN does.
func compileProbe(ctx *Context, a *algebra.Apply, left *node, st *OpStats) (*node, error) {
	sel, g, acc, _ := probeSeek(ctx.schema, a)
	tbl, _ := ctx.table(g.Table)
	right := newNode(nil, g.Cols)
	keyOrds := make([]int, len(acc.Keys))
	for i, k := range acc.Keys {
		keyOrds[i] = left.ords[k.(*algebra.ColRef).Col]
	}
	if sst := ctx.traceStats(sel); sst != nil {
		sst.Strategy = "seek=" + acc.Index.Name
	}
	it := &probeIter{ctx: ctx, left: left, tbl: tbl, index: acc.Index.Name, keyOrds: keyOrds, st: st,
		em: newJoinEmit(ctx, a.Kind, a.On, left, right), lr: rowReader{it: left.it, charge: ctx}}
	// The Select's filter, key conjuncts included, runs before the On:
	// a pair a seek of the inner side would not have returned never
	// reaches it.
	it.em.preds = append(ctx.compiler(right.ords).CompileVecConjuncts(sel.Filter), it.em.preds...)
	it.next, it.em.more = it.probe, it.window
	return newNode(it, joinOutCols(a.Kind, left, right)), nil
}

// probeIter is the index-lookup Apply (strategy probe): its inner side
// is a seek whose keys are columns of its left side, so nothing is
// bound, opened or closed per binding. It pulls a left batch, reads the
// key columns as vectors (keyReader) and looks every row's key up in
// one storage call (Version.LookupBatch, typed), then serves joinEmit
// each left row's candidates under the Select's filter and the Apply's
// On: the index's covered matches, then the rows past its coverage, in
// the order a seek of the inner side reads them, charged a window at a
// time, so the rows and the error are the batched path's. A batch of
// bindings is one inner execution. No binding cache: a lookup
// costs what a cache probe would, and its matches are the stored rows
// themselves.
type probeIter struct {
	ctx     *Context
	left    *node
	tbl     *storage.Version
	index   string
	keyOrds []int // the seek keys' left ordinals, in index order
	st      *OpStats

	em   joinEmit
	lr   rowReader
	next probeFn
	kr   keyReader
	ks   storage.KeyBatch
	key  []types.Datum // a row's boxed key, for key vectors of mixed kinds

	// The buffered left batch's lookups: live row k's covered matches
	// are ords[ends[k-1]:ends[k]], the index covering rows [0, covered).
	ords, ends, tmp []int32
	covered         int
	// The left row in progress: its next match ords[pos:end], then its
	// next stored row past the coverage, rest.
	pos, end, rest int
	cands          []types.Row
}

func (p *probeIter) Open() error {
	p.em.reset()
	p.lr.reset()
	return p.left.it.Open()
}

// probe yields the next left row, looking up a left batch at a time;
// its candidates follow through window.
func (p *probeIter) probe(limit int) (types.Row, []types.Row, bool, error) {
	if p.lr.spent() {
		if ok, err := p.lr.pull(limit); !ok {
			return nil, nil, false, err
		}
		p.lookup()
	}
	k := p.lr.pos
	lrow, _, _ := p.lr.next(limit)
	p.pos, p.end, p.rest = 0, int(p.ends[k]), p.covered
	if k > 0 {
		p.pos = int(p.ends[k-1])
	}
	return lrow, nil, true, nil
}

// window is the emitter's more: the left row in progress's next at most
// want candidates, charged as read — covered matches first, then rows
// past the coverage, never both in one window.
func (p *probeIter) window(want int) ([]types.Row, error) {
	rows := p.tbl.AllRows()
	var w []types.Row
	if p.pos < p.end {
		p.cands = p.cands[:0]
		for _, o := range p.ords[p.pos:min(p.pos+want, p.end)] {
			p.cands = append(p.cands, rows[o])
		}
		w = p.cands
		p.pos += len(w)
	} else {
		w = rows[p.rest:min(p.rest+want, len(rows))]
		p.rest += len(w)
	}
	return w, p.ctx.chargeN(len(w))
}

// lookup resolves the buffered left batch's keys against the index.
func (p *probeIter) lookup() {
	p.kr.read(&p.lr.b, p.keyOrds)
	if p.st != nil {
		p.st.Bindings += int64(len(p.kr.sel))
		p.st.InnerExecs++
	}
	p.ks.Cols, p.ks.Sel, p.ks.Hash = p.ks.Cols[:0], p.kr.sel, p.kr.hash
	for _, v := range p.kr.keys {
		if v.Mixed() {
			p.lookupBoxed()
			return
		}
		p.ks.Cols = append(p.ks.Cols, types.Column{Kind: v.Kind, I: v.I, F: v.F, S: v.S, Null: v.Null})
	}
	p.ords, p.ends, p.covered = p.tbl.LookupBatch(p.index, p.ks, p.ords, p.ends)
}

// lookupBoxed is lookup a key at a time, for key vectors whose values
// are not of one kind.
func (p *probeIter) lookupBoxed() {
	p.ords, p.ends = p.ords[:0], p.ends[:0]
	for _, ri := range p.kr.sel {
		p.key = p.key[:0]
		for _, v := range p.kr.keys {
			p.key = append(p.key, v.Datum(ri))
		}
		p.tmp, p.covered = p.tbl.Lookup(p.index, p.key, p.tmp)
		p.ords = append(p.ords, p.tmp...)
		p.ends = append(p.ends, int32(len(p.ords)))
	}
}

func (p *probeIter) NextBatch(b *Batch) error { return p.em.run(b, p.next) }

func (p *probeIter) Close() error { return p.left.it.Close() }

// applyEntry is one memoized binding: the signature values and the
// inner result rows they produced.
type applyEntry struct {
	key   types.Row
	rows  []types.Row
	bytes int64
	// hash is the key's hash; next chains the entries of one hash.
	hash uint64
	next *applyEntry
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
	buckets  map[uint64]*applyEntry // chained through applyEntry.next
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
	for e := bc.buckets[types.HashRow(key, bc.ords)]; e != nil; e = e.next {
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
	if bc.buckets == nil {
		bc.buckets = make(map[uint64]*applyEntry)
	}
	e.hash = types.HashRow(key, bc.ords)
	e.next = bc.buckets[e.hash]
	bc.buckets[e.hash] = e
	bc.order = append(bc.order, e)
	switch {
	case len(bc.ords) == 0:
		// The one binding of an uncorrelated inner side stays for the
		// whole Open whatever the cap and the budget: the inner side
		// runs once per Open.
	case over:
		// Query-wide pressure: shed the retained set and keep this
		// entry for its batch only.
		bc.evictTo(0)
		return e, nil
	case bc.bytes+e.bytes > bc.cap:
		if bc.evictTo(bc.cap - e.bytes); bc.bytes+e.bytes > bc.cap {
			return e, nil
		}
	}
	e.retained = true
	bc.bytes += e.bytes
	return e, nil
}

// unlink removes the entry from its hash chain and returns its
// accounted bytes. Callers maintain bc.order.
func (bc *bindingCache) unlink(e *applyEntry) {
	switch head := bc.buckets[e.hash]; {
	case head != e:
		for p := head; p != nil; p = p.next {
			if p.next == e {
				p.next = e.next
				break
			}
		}
	case e.next != nil:
		bc.buckets[e.hash] = e.next
	default:
		delete(bc.buckets, e.hash)
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
	clear(bc.buckets)
}

// batchApplyIter is the binding-batch Apply operator.
type batchApplyIter struct {
	ctx         *Context
	left, right *node
	sigCols     []algebra.ColID
	sigOrds     []int
	st          *OpStats
	// earlyOut stops inner drains at the first row (existenceOnly).
	earlyOut bool

	em    joinEmit
	next  probeFn
	cache *bindingCache
	scope paramScope
	lb    Batch       // outer-side pulls
	rb    Batch       // inner-side drains
	key   types.Row   // the binding in progress
	rows  []types.Row // its inner result, when not memoizing

	// The current batch of outer rows and the emission position among
	// them.
	lrows []types.Row
	cur   int
	lEOF  bool
	// Whether this Open memoizes bindings: decided once, on its first
	// full batch or its last one, from the distinct binding hashes seen.
	memo, decided bool
	hashes        []uint64
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
	b.cur, b.lEOF = 0, false
	b.memo, b.decided = true, false
	return b.left.it.Open()
}

func (b *batchApplyIter) Close() error {
	if b.cache != nil {
		b.cache.reset()
	}
	b.lrows, b.rows = nil, nil
	return b.left.it.Close()
}

// refill collects the next batch of outer rows, at most limit of them
// (the consumer's row cap). The Open's first full batch — or its last,
// when the outer side ends first — decides whether the Apply memoizes
// from that batch on.
func (b *batchApplyIter) refill(limit int) error {
	b.cache.endBatch()
	b.lrows = b.lrows[:0]
	b.cur = 0
	want := min(limit, applyBatchRows)
	for !b.lEOF && len(b.lrows) < want {
		b.lb.Limit = want - len(b.lrows)
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
		}
	}
	if !b.decided && (len(b.lrows) == applyBatchRows || b.lEOF) {
		b.decided = true
		b.memo = applyDedupMinRatio*float64(b.distinct()) < float64(len(b.lrows))
		if !b.memo {
			b.cache.reset()
		}
	}
	return nil
}

// distinct counts the batch's distinct bindings by their hashes: a
// collision undercounts, which only keeps the memo.
func (b *batchApplyIter) distinct() int {
	b.hashes = b.hashes[:0]
	for _, r := range b.lrows {
		b.hashes = append(b.hashes, types.HashRow(r, b.sigOrds))
	}
	slices.Sort(b.hashes)
	return len(slices.Compact(b.hashes))
}

// sigKey appends lrow's binding signature values to dst.
func (b *batchApplyIter) sigKey(dst, lrow types.Row) types.Row {
	for _, o := range b.sigOrds {
		dst = append(dst, lrow[o])
	}
	return dst
}

// existenceOnly reports whether an Apply needs only the first inner row
// per binding: Semi/Anti with a trivially-true On.
func existenceOnly(a *algebra.Apply) bool {
	return (a.Kind == algebra.SemiJoin || a.Kind == algebra.AntiSemiJoin) &&
		(a.On == nil || algebra.IsTrueConst(a.On))
}

// runBinding executes the inner side once with the binding installed,
// appending its rows to dst. With earlyOut set it asks for one row and
// stops: all a Semi/Anti Apply with a trivially-true On needs is
// existence.
func (b *batchApplyIter) runBinding(key types.Row, dst []types.Row) ([]types.Row, error) {
	b.scope.bind(b.ctx.params, b.sigCols, key)
	defer b.scope.unbind(b.ctx.params)
	it := b.right.it
	if err := it.Open(); err != nil {
		it.Close()
		return nil, err
	}
	b.rb.Limit = 0
	if b.earlyOut {
		b.rb.Limit = 1
	}
	for {
		if err := it.NextBatch(&b.rb); err != nil {
			it.Close()
			return nil, err
		}
		n := b.rb.Len()
		for i := 0; i < n; i++ {
			dst = append(dst, b.rb.Row(i))
		}
		if n == 0 || b.earlyOut {
			return dst, it.Close()
		}
	}
}

// fetch resolves one outer row's binding lazily: a cache hit replays,
// a miss executes the inner side here and now, so an error surfaces at
// the outer row that needs the binding. Without the memo the binding
// runs into a buffer the next row reuses: the emitter has finished
// with a row's candidates before it asks for the next row.
func (b *batchApplyIter) fetch(lrow types.Row) ([]types.Row, error) {
	b.key = b.sigKey(b.key[:0], lrow)
	if b.st != nil {
		b.st.Bindings++
	}
	if b.memo {
		if e := b.cache.lookup(b.key); e != nil {
			b.cache.pin(e)
			return e.rows, nil
		}
	}
	if b.st != nil {
		b.st.InnerExecs++
	}
	if !b.memo {
		var err error
		b.rows, err = b.runBinding(b.key, b.rows[:0])
		return b.rows, err
	}
	key := slices.Clone(b.key)
	rows, err := b.runBinding(key, nil)
	if err != nil {
		return nil, err
	}
	_, err = b.cache.add(key, rows)
	return rows, err
}

// probe yields the next outer row of the batch with its binding's inner
// result, collecting the next batch when this one is used up.
func (b *batchApplyIter) probe(limit int) (types.Row, []types.Row, bool, error) {
	if b.cur >= len(b.lrows) {
		if err := b.refill(limit); err != nil || len(b.lrows) == 0 {
			return nil, nil, false, err
		}
	}
	lrow := b.lrows[b.cur]
	rows, err := b.fetch(lrow)
	if err != nil {
		return nil, nil, false, err
	}
	b.cur++
	return lrow, rows, true, nil
}

func (b *batchApplyIter) NextBatch(out *Batch) error { return b.em.run(out, b.next) }
