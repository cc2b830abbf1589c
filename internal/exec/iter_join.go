package exec

import (
	"sync"
	"sync/atomic"

	"orthoq/internal/algebra"
	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
)

// compileJoin lowers a join: hash join when equality keys can be
// extracted, nested loops otherwise.
func compileJoin(ctx *Context, j *algebra.Join) (*node, error) {
	left, err := compile(ctx, j.Left)
	if err != nil {
		return nil, err
	}
	right, err := compile(ctx, j.Right)
	if err != nil {
		return nil, err
	}
	outCols := joinOutCols(j.Kind, left, right)

	lKeys, rKeys, residual := SplitJoinKeys(j.On,
		algebra.NewColSet(left.cols...), algebra.NewColSet(right.cols...))
	if len(lKeys) > 0 {
		if n, ok := maybeMergeJoin(ctx, j, left, right, lKeys, rKeys, residual); ok {
			return n, nil
		}
		lOrds := make([]int, len(lKeys))
		rOrds := make([]int, len(rKeys))
		for i := range lKeys {
			lOrds[i] = left.ords[lKeys[i]]
			rOrds[i] = right.ords[rKeys[i]]
		}
		it := &hashJoinIter{ctx: ctx, left: left, right: right, lOrds: lOrds, rOrds: rOrds,
			em:       newJoinEmit(ctx, j.Kind, algebra.ConjoinAll(residual...), left, right),
			lr:       rowReader{it: left.it, charge: ctx},
			sizeHint: ctx.Estimates.sizeHint(j.Right, joinPresizeMax), st: ctx.traceStats(j)}
		it.em.lOrds, it.em.rOrds = lOrds, rOrds
		it.next = it.probe
		if ctx.isWorker && algebra.OuterRefs(j.Right).Empty() {
			// Parallel workers probing the same join build the table once:
			// the first worker to Open builds, the rest share it read-only.
			it.shared = ctx.shared.buildFor(j)
		}
		return newNode(it, outCols), nil
	}
	it := &nlJoinIter{left: left, right: right,
		em: newJoinEmit(ctx, j.Kind, j.On, left, right), lr: rowReader{it: left.it}}
	it.em.pairs = ctx
	it.next = it.probe
	return newNode(it, outCols), nil
}

func joinOutCols(kind algebra.JoinKind, left, right *node) []algebra.ColID {
	out := append([]algebra.ColID(nil), left.cols...)
	if kind.ReturnsRightCols() {
		out = append(out, right.cols...)
	}
	return out
}

// SplitJoinKeys extracts hash-join equality keys (left-col = right-col
// conjuncts) from a join predicate, returning the paired key columns
// and the residual conjuncts. It is shared with the cost model.
func SplitJoinKeys(on algebra.Scalar, leftCols, rightCols algebra.ColSet) (lk, rk []algebra.ColID, residual []algebra.Scalar) {
	var buf [8]algebra.Scalar // the cost model splits keys per join costed
	for _, c := range algebra.AppendConjuncts(buf[:0], on) {
		if cmp, ok := c.(*algebra.Cmp); ok && cmp.Op == algebra.CmpEq {
			l, lok := cmp.L.(*algebra.ColRef)
			r, rok := cmp.R.(*algebra.ColRef)
			if lok && rok {
				switch {
				case leftCols.Contains(l.Col) && rightCols.Contains(r.Col):
					lk = append(lk, l.Col)
					rk = append(rk, r.Col)
					continue
				case leftCols.Contains(r.Col) && rightCols.Contains(l.Col):
					lk = append(lk, r.Col)
					rk = append(rk, l.Col)
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return lk, rk, residual
}

// joinEmit is the emission half of every join-shaped operator — hash,
// Grace, merge and nested-loop joins and both Apply strategies. Given
// one left row and its candidate right rows it decides, by join kind,
// what goes on the output: a concatenation per matching pair (inner,
// left outer), the left row at its first match (semi), the left row
// when nothing matched (antisemi), the NULL-padded left row when
// nothing matched (left outer). The operators differ only in where a
// left row's candidates come from — their probeFn.
type joinEmit struct {
	kind   algebra.JoinKind
	rWidth int
	// lOrds/rOrds, when set, re-check key equality per candidate: a hash
	// bucket holds the rows of a hash value, not of a key. SQL equality:
	// NULL keys never match (probes hand NULL-key rows no candidates).
	lOrds, rOrds []int
	// on is the join, residual or Apply predicate over the pair; nil
	// passes every pair.
	on eval.CompiledPred
	fr eval.Frame
	// pairs, when set, charges every examined pair to RowBudget (nested
	// loops, where pairs — not input rows — are the work).
	pairs *Context
	// more, when set, fetches the left row in progress its next window of
	// at most want candidates; an empty window ends the row. A sequential
	// Apply streams its inner side through it, so the inner produces no
	// row the emitter will not look at and holds one batch, not a result.
	more func(want int) ([]types.Row, error)

	arena rowArena // backs joined output rows
	out   []types.Row

	// The left row in progress and the position among its candidates.
	lrow    types.Row
	cands   []types.Row
	pos     int
	haveL   bool
	matched bool
	drained bool // more has returned its empty window for this row
}

// probeFn yields the next left row with its candidate right rows,
// asking the driving input for at most limit rows when it has to pull;
// ok=false at end of input. Operators bind theirs once at compile time
// (it.next = it.probe): a method value taken per NextBatch call would
// allocate.
type probeFn func(limit int) (lrow types.Row, cands []types.Row, ok bool, err error)

func newJoinEmit(ctx *Context, kind algebra.JoinKind, on algebra.Scalar, left, right *node) joinEmit {
	return joinEmit{kind: kind, rWidth: len(right.cols), on: ctx.joinPred(on, left, right),
		fr: eval.Frame{Outer: ctx.params}}
}

// reset drops the left row in progress (the operator was re-opened).
func (j *joinEmit) reset() { j.haveL = false }

// run produces the next output batch of at most b's row cap.
func (j *joinEmit) run(b *Batch, next probeFn) error {
	j.out = j.out[:0]
	return j.fill(b, next)
}

// fill continues the output batch in j.out.
func (j *joinEmit) fill(b *Batch, next probeFn) error {
	limit := b.limit()
	for len(j.out) < limit {
		if !j.haveL {
			lrow, cands, ok, err := next(limit)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			j.lrow, j.cands, j.pos, j.haveL, j.matched = lrow, cands, 0, true, false
			j.drained = j.more == nil
		}
		done, err := j.feed(limit)
		if err != nil {
			return err
		}
		if !done {
			break // output full mid-row; the next call resumes at j.pos
		}
		j.haveL = false
	}
	b.Rows, b.Sel = j.out, nil
	return nil
}

// feed emits what the left row in progress and its remaining
// candidates put on the output. done=false means the output filled up
// first.
func (j *joinEmit) feed(limit int) (done bool, err error) {
	for {
		for ; j.pos < len(j.cands); j.pos++ {
			if len(j.out) >= limit {
				return false, nil
			}
			rrow := j.cands[j.pos]
			if j.pairs != nil {
				if err := j.pairs.charge(); err != nil {
					return false, err
				}
			}
			if j.lOrds != nil && !types.EqualRows(j.lrow, j.lOrds, rrow, j.rOrds) {
				continue
			}
			if j.on != nil {
				j.fr.Row, j.fr.Row2 = j.lrow, rrow
				v, err := j.on(&j.fr)
				if err != nil {
					return false, err
				}
				if v != types.TriTrue {
					continue
				}
			}
			j.matched = true
			switch j.kind {
			case algebra.SemiJoin:
				j.out = append(j.out, j.lrow)
				return true, nil
			case algebra.AntiSemiJoin:
				return true, nil
			}
			j.out = append(j.out, j.arena.concat(j.lrow, rrow))
		}
		if j.drained {
			break
		}
		// A semi or antisemi row is decided by its first match, so it looks
		// at one candidate at a time; the other kinds can use as many as
		// the output still holds.
		want := limit - len(j.out)
		if !j.kind.ReturnsRightCols() {
			want = 1
		}
		if want <= 0 {
			return false, nil
		}
		if j.cands, err = j.more(want); err != nil {
			return false, err
		}
		j.pos, j.drained = 0, len(j.cands) == 0
	}
	if !j.matched {
		if len(j.out) >= limit {
			return false, nil
		}
		j.unmatched(j.lrow)
	}
	return true, nil
}

// unmatched emits what a left row without a match contributes.
func (j *joinEmit) unmatched(lrow types.Row) {
	switch j.kind {
	case algebra.AntiSemiJoin:
		j.out = append(j.out, lrow)
	case algebra.LeftOuterJoin:
		j.out = append(j.out, j.arena.padNulls(lrow, j.rWidth))
	}
}

// hashJoinIter builds a hash table on the right input and probes with
// the left, supporting inner, left outer, semi and antisemi variants.
type hashJoinIter struct {
	ctx          *Context
	left, right  *node
	lOrds, rOrds []int
	// sizeHint preallocates the build map (cardinality estimate).
	sizeHint int
	// shared, when non-nil, is the cross-worker build slot: the first
	// worker to Open builds the table, later workers reuse it read-only.
	shared *sharedBuild
	// st collects memory/spill statistics for EXPLAIN ANALYZE.
	st *OpStats

	em    joinEmit
	lr    rowReader
	next  probeFn
	table map[uint64][]types.Row
	rb    Batch // build-side drain

	// charged is the build table's accounted bytes (private builds
	// release it on Close; a shared build's memory is genuinely held
	// for the rest of the query and stays accounted).
	charged int64
	// grace, when non-nil, runs the probe side Grace-style against
	// spilled build partitions (the build overflowed MemBudget).
	grace *graceJoin
}

// sharedBuild is a once-built hash-join table shared across parallel
// workers (read-only after the build). When the build spills, spill
// holds the level-0 build partition files instead; every worker then
// runs its own Grace probe over them (readers are independent).
type sharedBuild struct {
	once  sync.Once
	table map[uint64][]types.Row
	spill *spillSet
	err   error
}

func (h *hashJoinIter) Open() error {
	h.grace = nil
	if h.shared != nil {
		h.shared.once.Do(func() {
			h.shared.table, h.shared.spill, h.shared.err = h.buildTable()
			h.charged = 0
		})
		if h.shared.err != nil {
			return h.shared.err
		}
		h.table = h.shared.table
		if h.shared.spill != nil {
			h.grace = newGraceJoin(h, h.shared.spill, true)
		}
	} else {
		tbl, bset, err := h.buildTable()
		if err != nil {
			return err
		}
		h.table = tbl
		if bset != nil {
			h.grace = newGraceJoin(h, bset, false)
		}
	}
	h.em.reset()
	h.lr.reset()
	return h.left.it.Open()
}

// buildTable drains the right input into the probe hash table (row
// headers are copied into it, so the producer reusing its batch buffers
// is safe). Under a memory budget, crossing it degrades to a Grace
// build: the resident rows are dumped into level-0 partition files, the
// rest of the input streams there directly, and the returned spillSet
// replaces the table.
func (h *hashJoinIter) buildTable() (map[uint64][]types.Row, *spillSet, error) {
	if err := h.right.it.Open(); err != nil {
		return nil, nil, err
	}
	table := make(map[uint64][]types.Row, h.sizeHint)
	governed := h.ctx.MemBudget > 0 || h.ctx.Faults != nil
	var bset *spillSet
	insert := func(row types.Row) error {
		if rowHasNullAt(row, h.rOrds) {
			return nil // NULL keys never join
		}
		k := types.HashRow(row, h.rOrds)
		if bset != nil {
			return bset.add(k, row)
		}
		if governed {
			over, err := h.ctx.grantMem(h.st, "Join", types.RowBytes(row))
			if err != nil {
				return err
			}
			h.charged += types.RowBytes(row)
			if over {
				// Budget crossed: dump resident rows to disk and release
				// the accounted memory; the rest of the build streams
				// straight into the partitions.
				bset = newSpillSet(h.ctx, 0)
				if h.st != nil {
					atomic.AddInt64(&h.st.Spills, 1)
				}
				for _, bucket := range table {
					for _, brow := range bucket {
						if err := bset.add(types.HashRow(brow, h.rOrds), brow); err != nil {
							return err
						}
					}
				}
				table = nil
				h.ctx.releaseMem(h.charged)
				h.charged = 0
				return bset.add(k, row)
			}
		}
		table[k] = append(table[k], row)
		return nil
	}
	if err := drainRows(h.right.it, &h.rb, insert); err != nil {
		h.right.it.Close()
		if bset != nil {
			bset.dropAll()
		}
		if h.charged > 0 {
			h.ctx.releaseMem(h.charged)
			h.charged = 0
		}
		return nil, nil, err
	}
	if err := h.right.it.Close(); err != nil {
		if bset != nil {
			bset.dropAll()
		}
		return nil, nil, err
	}
	if bset != nil {
		if err := bset.finish(); err != nil {
			bset.dropAll()
			return nil, nil, err
		}
		return nil, bset, nil
	}
	return table, nil, nil
}

func rowHasNullAt(row types.Row, ords []int) bool {
	for _, o := range ords {
		if row[o].IsNull() {
			return true
		}
	}
	return false
}

// probe yields the next left row with the bucket its key hashes to.
func (h *hashJoinIter) probe(limit int) (types.Row, []types.Row, bool, error) {
	lrow, ok, err := h.lr.next(limit)
	if err != nil || !ok {
		return nil, nil, false, err
	}
	if rowHasNullAt(lrow, h.lOrds) {
		return lrow, nil, true, nil
	}
	return lrow, h.table[types.HashRow(lrow, h.lOrds)], true, nil
}

func (h *hashJoinIter) NextBatch(b *Batch) error {
	if h.grace != nil {
		return h.grace.produce(b)
	}
	return h.em.run(b, h.next)
}

func (h *hashJoinIter) Close() error {
	if h.grace != nil {
		h.grace.release()
		h.grace = nil
	}
	if h.charged > 0 && h.shared == nil {
		h.ctx.releaseMem(h.charged)
		h.charged = 0
	}
	h.table = nil
	return h.left.it.Close()
}

// nlJoinIter is a nested-loops join with a materialized right side.
type nlJoinIter struct {
	left, right *node
	em          joinEmit
	lr          rowReader
	next        probeFn
	rrows       []types.Row
	rb          Batch
}

func (n *nlJoinIter) Open() error {
	if err := n.right.it.Open(); err != nil {
		return err
	}
	n.rrows = n.rrows[:0]
	err := drainRows(n.right.it, &n.rb, func(row types.Row) error {
		n.rrows = append(n.rrows, row)
		return nil
	})
	if cerr := n.right.it.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	n.em.reset()
	n.lr.reset()
	return n.left.it.Open()
}

// probe pairs the next left row with the whole right side.
func (n *nlJoinIter) probe(limit int) (types.Row, []types.Row, bool, error) {
	lrow, ok, err := n.lr.next(limit)
	return lrow, n.rrows, ok, err
}

func (n *nlJoinIter) NextBatch(b *Batch) error { return n.em.run(b, n.next) }

func (n *nlJoinIter) Close() error { return n.left.it.Close() }

// spoolIter materializes its input on first Open and replays the
// buffered rows on every later Open. The buffered rows are charged to
// the per-query memory accountant as they arrive; the owning Apply
// iterator calls release on its own Close (the spool must survive the
// per-outer-row Close/Open cycle of the inner side, so its own Close
// is a no-op), after which a later Open refills.
type spoolIter struct {
	ctx     *Context
	st      *OpStats
	in      iterator
	filled  bool
	rows    []types.Row
	pos     int
	charged int64
	cb      Batch
}

func (s *spoolIter) Open() error {
	s.pos = 0
	if s.filled {
		return nil
	}
	if err := s.in.Open(); err != nil {
		return err
	}
	governed := s.ctx.MemBudget > 0 || s.ctx.Faults != nil
	err := drainRows(s.in, &s.cb, func(row types.Row) error {
		if governed {
			// The spool cannot spill; over-budget usage stays visible in
			// the accountant and only aborts under DisableSpill.
			n := types.RowBytes(row)
			if _, err := s.ctx.grantMem(s.st, "Spool", n); err != nil {
				return err
			}
			s.charged += n
		}
		s.rows = append(s.rows, row)
		return nil
	})
	if err != nil {
		s.in.Close()
		s.release()
		return err
	}
	s.filled = true
	return s.in.Close()
}

// release drops the buffered rows and returns their accounted bytes.
func (s *spoolIter) release() {
	if s.charged > 0 {
		s.ctx.releaseMem(s.charged)
		s.charged = 0
	}
	s.rows = nil
	s.filled = false
}

func (s *spoolIter) NextBatch(b *Batch) error {
	b.serve(s.rows, &s.pos)
	return nil
}

func (s *spoolIter) Close() error { return nil }

// paramScope installs correlation bindings in a strand's parameter map
// and restores what they shadowed, so nested Apply scopes binding
// overlapping columns unwind correctly.
type paramScope struct {
	saved []savedParam
}

type savedParam struct {
	col algebra.ColID
	val types.Datum
	had bool
}

func (p *paramScope) bind(params eval.MapEnv, cols []algebra.ColID, vals types.Row) {
	p.saved = p.saved[:0]
	for i, c := range cols {
		prev, had := params[c]
		p.saved = append(p.saved, savedParam{col: c, val: prev, had: had})
		params[c] = vals[i]
	}
}

func (p *paramScope) unbind(params eval.MapEnv) {
	for _, s := range p.saved {
		if s.had {
			params[s.col] = s.val
		} else {
			delete(params, s.col)
		}
	}
	p.saved = p.saved[:0]
}

// applyIter is the sequential Apply: the inner side runs once per outer
// row with the row's columns installed as parameters, and streams into
// the emitter a window at a time (joinEmit.more) — it is never
// materialized, so a large inner result holds one batch of memory, and
// a Semi or Anti Apply stops its inner side at the first match.
type applyIter struct {
	ctx         *Context
	left, right *node
	// spool is set when the invariant inner side was wrapped in a
	// spool; the apply owns its teardown (see spoolIter.release).
	spool *spoolIter
	// st, when tracing, carries the strategy and binding counters
	// shared with the traceIter wrapping this operator.
	st *OpStats

	em    joinEmit
	lr    rowReader
	next  probeFn
	scope paramScope
	rb    Batch
	sel   []types.Row // a window that arrived under a selection, gathered
	// bound: the inner side is open under the current outer row's
	// bindings. They stay installed until the next outer row is pulled (or
	// Close), since the emitter may pause mid-row when its output fills.
	bound bool
}

func (ap *applyIter) Open() error {
	ap.em.reset()
	ap.lr.reset()
	return ap.left.it.Open()
}

// probe opens the inner side under the next outer row's bindings; the
// candidates follow through window.
func (ap *applyIter) probe(limit int) (types.Row, []types.Row, bool, error) {
	if err := ap.endInner(); err != nil {
		return nil, nil, false, err
	}
	lrow, ok, err := ap.lr.next(limit)
	if err != nil || !ok {
		return nil, nil, false, err
	}
	if ap.st != nil {
		// Sequential execution runs the inner per outer row: every
		// binding is its own execution.
		ap.st.Bindings++
		ap.st.InnerExecs++
	}
	ap.scope.bind(ap.ctx.params, ap.left.cols, lrow)
	ap.bound = true
	return lrow, nil, true, ap.right.it.Open()
}

// window is the emitter's more: the open inner side's next batch.
func (ap *applyIter) window(want int) ([]types.Row, error) {
	ap.rb.Limit = want
	if err := ap.right.it.NextBatch(&ap.rb); err != nil {
		return nil, err
	}
	if ap.rb.Sel == nil {
		return ap.rb.Rows, nil
	}
	ap.sel = ap.sel[:0]
	for _, i := range ap.rb.Sel {
		ap.sel = append(ap.sel, ap.rb.Rows[i])
	}
	return ap.sel, nil
}

// endInner closes the inner side and restores what its bindings
// shadowed.
func (ap *applyIter) endInner() error {
	if !ap.bound {
		return nil
	}
	ap.bound = false
	err := ap.right.it.Close()
	ap.scope.unbind(ap.ctx.params)
	return err
}

func (ap *applyIter) NextBatch(b *Batch) error { return ap.em.run(b, ap.next) }

func (ap *applyIter) Close() error {
	err := ap.endInner()
	if ap.spool != nil {
		ap.spool.release()
	}
	if cerr := ap.left.it.Close(); err == nil {
		err = cerr
	}
	return err
}

// graceJoin runs the probe side of a spilled hash join. Phase one
// streams the left input into probe partition files aligned with the
// spilled build partitions, emitting NULL-key rows' outer/anti results
// inline (NULL keys never match, so they need no partition at all).
// Phase two processes a worklist of (build, probe) partition pairs:
// the build file is loaded into an in-memory table and the probe file
// replayed against it; a build partition that still does not fit
// repartitions both files on the next hash bits (recursive skew
// handling) until the hash bits run out.
type graceJoin struct {
	h *hashJoinIter
	// shared marks level-0 build partitions owned by a cross-worker
	// sharedBuild: they must survive this worker (the run's spill
	// registry removes them at the end).
	shared bool

	build       [spillFanout]*spillFile
	probe       *spillSet
	partitioned bool
	work        []gracePair

	// current pair state
	cur        gracePair
	curActive  bool
	table      map[uint64][]types.Row
	tblCharged int64
	rd         *spillReader
	next       probeFn
}

// gracePair is one (build, probe) partition pair awaiting processing.
type gracePair struct {
	build, probe *spillFile
	level        int
	// sharedBuild: the build file belongs to a cross-worker build and
	// must not be dropped by this worker.
	sharedBuild bool
}

func newGraceJoin(h *hashJoinIter, bset *spillSet, shared bool) *graceJoin {
	g := &graceJoin{h: h, shared: shared, probe: newSpillSet(h.ctx, bset.level)}
	g.build = bset.parts
	g.next = g.pairProbe
	return g
}

func (g *graceJoin) produce(b *Batch) error {
	h := g.h
	em := &h.em
	em.out = em.out[:0]
	// Phase one: partition the probe stream.
	for limit := b.limit(); !g.partitioned && len(em.out) < limit; {
		lrow, ok, err := h.lr.next(0)
		if err != nil {
			return err
		}
		if !ok {
			if err := g.probe.finish(); err != nil {
				return err
			}
			for p := 0; p < spillFanout; p++ {
				pf := g.probe.parts[p]
				if pf == nil {
					// No probe rows reached this partition; its build
					// rows can never match or be emitted.
					continue
				}
				g.work = append(g.work, gracePair{
					build: g.build[p], probe: pf, level: g.probe.level,
					sharedBuild: g.shared,
				})
			}
			g.partitioned = true
			break
		}
		if rowHasNullAt(lrow, h.lOrds) {
			em.unmatched(lrow)
			continue
		}
		if err := g.probe.add(types.HashRow(lrow, h.lOrds), lrow); err != nil {
			return err
		}
	}
	if !g.partitioned {
		b.Rows, b.Sel = em.out, nil
		return nil
	}
	// Phase two: drain partition pairs.
	return em.fill(b, g.next)
}

// pairProbe yields the next probe row of the partition pairs — each
// pair's probe file replayed against its in-memory build table — moving
// to the next pair (splitting oversized ones) as files run out.
func (g *graceJoin) pairProbe(int) (types.Row, []types.Row, bool, error) {
	h := g.h
	for {
		if !g.curActive {
			if len(g.work) == 0 {
				return nil, nil, false, nil
			}
			pair := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			if split, err := g.startPair(pair); err != nil {
				return nil, nil, false, err
			} else if split {
				continue // repartitioned into finer pairs
			}
		}
		lrow, ok, err := g.rd.next()
		if err != nil {
			return nil, nil, false, err
		}
		if !ok {
			g.endPair()
			continue
		}
		if err := h.ctx.charge(); err != nil {
			return nil, nil, false, err
		}
		return lrow, g.table[types.HashRow(lrow, h.lOrds)], true, nil
	}
}

// startPair loads a pair's build partition into memory and opens its
// probe reader. If the build rows overflow the budget with hash bits
// to spare, the pair is split instead (split=true) and nothing is
// loaded.
func (g *graceJoin) startPair(pair gracePair) (split bool, err error) {
	h := g.h
	table := make(map[uint64][]types.Row)
	var charged int64
	governed := h.ctx.MemBudget > 0
	release := func() {
		if charged > 0 {
			h.ctx.releaseMem(charged)
		}
	}
	if pair.build != nil {
		rd, err := pair.build.reader()
		if err != nil {
			return false, err
		}
		for {
			row, ok, rerr := rd.next()
			if rerr != nil {
				rd.close()
				release()
				return false, rerr
			}
			if !ok {
				break
			}
			if cerr := h.ctx.charge(); cerr != nil {
				rd.close()
				release()
				return false, cerr
			}
			if governed {
				over, gerr := h.ctx.grantMem(h.st, "Join", types.RowBytes(row))
				if gerr != nil {
					rd.close()
					release()
					return false, gerr
				}
				charged += types.RowBytes(row)
				if over && pair.level < maxSpillLevel {
					// Still too large: repartition both sides on the next
					// hash bits. At maxSpillLevel the bits are exhausted
					// (identical-key skew cannot split) and the partition
					// is processed unbounded instead.
					rd.close()
					release()
					return true, g.splitPair(pair)
				}
			}
			table[types.HashRow(row, h.rOrds)] = append(table[types.HashRow(row, h.rOrds)], row)
		}
		rd.close()
	}
	rd, err := pair.probe.reader()
	if err != nil {
		release()
		return false, err
	}
	g.table = table
	g.tblCharged = charged
	g.rd = rd
	g.cur = pair
	g.curActive = true
	return false, nil
}

// splitPair repartitions both files of an oversized pair at the next
// level and queues the resulting pairs.
func (g *graceJoin) splitPair(pair gracePair) error {
	h := g.h
	if h.st != nil {
		atomic.AddInt64(&h.st.Spills, 1)
	}
	bset := newSpillSet(h.ctx, pair.level+1)
	pset := newSpillSet(h.ctx, pair.level+1)
	fail := func(err error) error {
		bset.dropAll()
		pset.dropAll()
		return err
	}
	repart := func(src *spillFile, dst *spillSet, ords []int) error {
		rd, err := src.reader()
		if err != nil {
			return err
		}
		defer rd.close()
		for {
			row, ok, err := rd.next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := h.ctx.charge(); err != nil {
				return err
			}
			if err := dst.add(types.HashRow(row, ords), row); err != nil {
				return err
			}
		}
	}
	if pair.build != nil {
		if err := repart(pair.build, bset, h.rOrds); err != nil {
			return fail(err)
		}
	}
	if err := repart(pair.probe, pset, h.lOrds); err != nil {
		return fail(err)
	}
	if err := bset.finish(); err != nil {
		return fail(err)
	}
	if err := pset.finish(); err != nil {
		return fail(err)
	}
	if pair.build != nil && !pair.sharedBuild {
		pair.build.drop(h.ctx)
	}
	pair.probe.drop(h.ctx)
	for p := 0; p < spillFanout; p++ {
		pf := pset.parts[p]
		if pf == nil {
			if bf := bset.parts[p]; bf != nil {
				bf.drop(h.ctx)
			}
			continue
		}
		g.work = append(g.work, gracePair{build: bset.parts[p], probe: pf, level: pair.level + 1})
	}
	return nil
}

// endPair releases the finished pair's resources.
func (g *graceJoin) endPair() {
	h := g.h
	if g.rd != nil {
		g.rd.close()
		g.rd = nil
	}
	if g.curActive {
		if g.cur.probe != nil {
			g.cur.probe.drop(h.ctx)
		}
		if g.cur.build != nil && !g.cur.sharedBuild {
			g.cur.build.drop(h.ctx)
		}
	}
	g.cur = gracePair{}
	g.curActive = false
	if g.tblCharged > 0 {
		h.ctx.releaseMem(g.tblCharged)
		g.tblCharged = 0
	}
	g.table = nil
}

// release tears down mid-probe state on Close (early termination).
// Files owned by this worker drop now; shared build partitions are
// left for the run's spill registry.
func (g *graceJoin) release() {
	g.endPair()
	for _, p := range g.work {
		if p.probe != nil {
			p.probe.drop(g.h.ctx)
		}
		if p.build != nil && !p.sharedBuild {
			p.build.drop(g.h.ctx)
		}
	}
	g.work = nil
	if g.probe != nil && !g.partitioned {
		g.probe.dropAll()
	}
	if !g.shared {
		for i, bf := range g.build {
			if bf != nil {
				bf.drop(g.h.ctx)
				g.build[i] = nil
			}
		}
	}
}
