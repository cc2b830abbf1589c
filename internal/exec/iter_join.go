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
		em := newJoinEmit(ctx, j.Kind, algebra.ConjoinAll(residual...), left, right)
		it := &hashJoinIter{ctx: ctx, left: left, right: right, lOrds: lOrds, rOrds: rOrds, em: &em,
			lr:       rowReader{it: left.it, charge: ctx},
			sizeHint: ctx.Estimates.sizeHint(j.Right, joinPresizeMax), st: ctx.traceStats(j)}
		it.next = it.probe
		if ctx.isWorker && algebra.OuterRefs(j.Right).Empty() && !algebra.HasForeignSegmentRefs(j.Right) {
			// Parallel workers probing the same join build the table once:
			// the first worker to Open builds, the rest share it read-only.
			// A build side that reads a binding or a segment (inside an
			// Apply's inner side or a SegmentApply's) differs per Open,
			// so each Open builds its own.
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
//
// The predicate runs over a window of the left row's candidates as one
// vector batch. A window never holds more candidates than the output
// has room for; semi and antisemi, decided by their first match, take
// doubling windows (1, 2, 4, … candidates). The outcome is that of a
// loop over the pairs in candidate order: the same rows in the same
// order, the same error, the same pairs charged.
type joinEmit struct {
	kind   algebra.JoinKind
	rWidth int
	// preds is the pair predicate as conjuncts a pair must pass in turn,
	// compiled against the right input's layout: the join, residual or
	// Apply predicate whole, and for an Apply probe the inner Select's
	// filter conjuncts before it. The left row's columns are
	// batch-invariant and read through lenv, which falls through to the
	// strand's parameters. Empty passes every pair.
	preds []*eval.VecPred
	frame eval.VecFrame
	lenv  eval.RowEnv
	sel   []int
	// pairs, when set, charges every examined pair to RowBudget (nested
	// loops, where pairs — not input rows — are the work).
	pairs *Context
	// more, when set, fetches the left row in progress its next window of
	// at most want candidates; an empty window ends the row. The probe
	// serves its index matches through it, so it reads and charges no
	// candidate the emitter will not look at.
	more func(want int) ([]types.Row, error)

	arena rowArena // backs joined output rows
	out   []types.Row

	// The left row in progress, the position among its candidates and,
	// for semi and antisemi, the size of the next window.
	lrow    types.Row
	cands   []types.Row
	pos     int
	step    int
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
	j := joinEmit{kind: kind, rWidth: len(right.cols),
		lenv: eval.RowEnv{Ords: left.ords, Outer: ctx.params}}
	if on != nil && !algebra.IsTrueConst(on) {
		j.preds = append(j.preds, ctx.compiler(right.ords).CompileVecPred(on))
	}
	return j
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
			j.lrow, j.cands, j.pos, j.step, j.haveL, j.matched = lrow, cands, 0, 1, true, false
			j.lenv.Row = lrow
			j.drained = j.more == nil
			// The row's windows share what the frame computes from it; a
			// row without candidates has no window.
			if len(cands) > 0 || !j.drained {
				j.frame.Reset(nil, &j.lenv)
			}
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
	b.set(j.out, nil)
	return nil
}

// feed emits what the left row in progress and its remaining
// candidates put on the output. done=false means the output filled up
// first.
func (j *joinEmit) feed(limit int) (done bool, err error) {
	for {
		for j.pos < len(j.cands) {
			room := limit - len(j.out)
			if room <= 0 {
				return false, nil
			}
			win := j.cands[j.pos:]
			if j.kind.ReturnsRightCols() {
				win = win[:min(len(win), room)]
			} else {
				win = win[:min(len(win), j.step)]
				j.step = min(2*j.step, BatchSize)
			}
			sel, err := j.match(win)
			if err != nil {
				return false, err
			}
			j.pos += len(win)
			if len(sel) == 0 {
				continue
			}
			j.matched = true
			switch j.kind {
			case algebra.SemiJoin:
				j.out = append(j.out, j.lrow)
				return true, nil
			case algebra.AntiSemiJoin:
				return true, nil
			}
			for _, i := range sel {
				j.out = append(j.out, j.arena.concat(j.lrow, win[i]))
			}
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

// match returns the positions in win of the candidates that pair with
// the left row in progress: every conjunct of the predicate TRUE, each
// evaluated over the pairs the ones before it kept. It charges the
// pairs the pair loop would have examined: the whole window, or up to
// the first survivor (semi, antisemi) or the first failing pair.
func (j *joinEmit) match(win []types.Row) ([]int, error) {
	sel := j.sel[:0]
	for i := range win {
		sel = append(sel, i)
	}
	j.sel = sel
	n := len(win)
	if len(j.preds) > 0 {
		j.frame.NextWindow(win)
	}
	var err error
	for _, p := range j.preds {
		if len(sel) == 0 {
			break
		}
		if sel, err = p.Filter(&j.frame, sel); err != nil {
			sel, n, err = j.pairwise(win)
			break
		}
	}
	if len(sel) > 0 && !j.kind.ReturnsRightCols() {
		n = sel[0] + 1
	}
	if j.pairs != nil {
		if cerr := j.pairs.chargeN(n); cerr != nil {
			return nil, cerr
		}
	}
	return sel, err
}

// pairwise re-runs a window whose batch evaluation failed one candidate
// at a time, in order, and stops where the pair loop stops: at the
// first failing pair, or for semi and antisemi at the first survivor.
// It returns the survivors before the stop, the number of candidates
// examined, and the failing pair's error.
func (j *joinEmit) pairwise(win []types.Row) (sel []int, n int, err error) {
	sel = j.sel[:0]
	var one [1]int
	for i := range win {
		one[0] = i
		j.frame.NextWindow(win)
		kept := one[:]
		for _, p := range j.preds {
			if kept, err = p.Filter(&j.frame, kept); err != nil {
				return sel, i + 1, err
			}
			if len(kept) == 0 {
				break
			}
		}
		if len(kept) > 0 {
			sel = append(sel, i)
			if !j.kind.ReturnsRightCols() {
				return sel, i + 1, nil
			}
		}
	}
	return sel, len(win), nil
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
// The probe resolves a whole left batch against the table (keys read
// as column vectors, NULLs from their masks) before the emitter walks
// it row by row.
type hashJoinIter struct {
	ctx          *Context
	left, right  *node
	lOrds, rOrds []int
	// sizeHint pre-sizes the build table (cardinality estimate).
	sizeHint int
	// shared, when non-nil, is the cross-worker build slot: the first
	// worker to Open builds the table, later workers reuse it read-only.
	shared *sharedBuild
	// st collects memory/spill statistics for EXPLAIN ANALYZE.
	st *OpStats
	// level is the spill level of the build: 0, or one past the level of
	// the Grace partitions whose pair this join is.
	level int

	em    *joinEmit // shared with the joins of Grace partition pairs
	lr    rowReader
	next  probeFn
	table *joinTable
	kr    keyReader
	cand  []int32 // the entry of each live row of the buffered left batch
	rb    Batch   // build-side drain

	// charged is the build table's accounted bytes (private builds
	// release it on Close; a shared build's memory is genuinely held
	// for the rest of the query and stays accounted).
	charged int64
	// grace, when non-nil, runs the probe side Grace-style against
	// spilled build partitions (the build overflowed MemBudget).
	grace *graceJoin
	// idle marks an Open whose left side was never opened: the build
	// came out empty and the kind returns nothing without a match.
	idle bool
}

// sharedBuild is a once-built hash-join table shared across parallel
// workers (read-only after the build). When the build spills, spill
// holds the level-0 build partition files instead; every worker then
// runs its own Grace probe over them (readers are independent).
type sharedBuild struct {
	once  sync.Once
	table *joinTable
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
	// An empty in-memory build of the first level answers an inner or
	// semi join without reading the probe side. A shared build keeps
	// every worker's probe, and a Grace pair's probe file is dropped by
	// its Close.
	h.idle = h.shared == nil && h.grace == nil && h.level == 0 &&
		h.table.ht.len() == 0 && needsMatch(h.em.kind)
	if h.idle {
		return nil
	}
	return h.left.it.Open()
}

// needsMatch reports whether a join of kind emits nothing for a left
// row without a matching right row: over an empty right side it emits
// nothing at all.
func needsMatch(kind algebra.JoinKind) bool {
	return kind == algebra.InnerJoin || kind == algebra.CrossJoin || kind == algebra.SemiJoin
}

// buildTable drains the right input into the join table (row headers
// are copied into it, so the producer reusing its batch buffers is
// safe). Under a memory budget, crossing it degrades to a Grace build:
// the resident rows are dumped into level-0 partition files, the rest
// of the input streams there directly, and the returned spillSet
// replaces the table.
func (h *hashJoinIter) buildTable() (*joinTable, *spillSet, error) {
	if err := h.right.it.Open(); err != nil {
		return nil, nil, err
	}
	table := newJoinTable(len(h.rOrds), h.sizeHint)
	governed := h.ctx.MemBudget > 0 || h.ctx.Faults != nil
	var bset *spillSet
	kr := &h.kr
	insert := func(b *Batch) error {
		kr.read(b, h.rOrds)
		for _, ri := range kr.sel {
			if kr.hasNull(ri) {
				continue // NULL keys never join
			}
			row := b.Rows[ri]
			if bset == nil && governed {
				over, err := h.ctx.grantMem(h.st, "Join", types.RowBytes(row))
				if err != nil {
					return err
				}
				h.charged += types.RowBytes(row)
				if over && h.level <= maxSpillLevel {
					// Budget crossed: dump resident rows to disk and release
					// the accounted memory; the rest of the build streams
					// straight into the partitions. Past the last level the
					// hash bits are exhausted (identical-key skew cannot
					// split) and the build stays in memory, unbounded.
					bset = newSpillSet(h.ctx, h.level)
					if h.st != nil {
						atomic.AddInt64(&h.st.Spills, 1)
					}
					if err := table.spillTo(bset); err != nil {
						return err
					}
					h.ctx.releaseMem(h.charged)
					h.charged = 0
				}
			}
			if bset == nil {
				table.add(kr, ri, row)
			} else if err := bset.add(kr.hash[ri], row); err != nil {
				return err
			}
		}
		return nil
	}
	if err := drainBatches(h.right.it, &h.rb, insert); err != nil {
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
	table.seal()
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

// probe yields the next left row with the build rows of its key,
// resolving a left batch at a time.
func (h *hashJoinIter) probe(limit int) (types.Row, []types.Row, bool, error) {
	if h.lr.spent() {
		if ok, err := h.lr.pull(limit); !ok {
			return nil, nil, false, err
		}
		h.cand = h.table.lookup(&h.kr, &h.lr.b, h.lOrds, h.cand)
	}
	e := h.cand[h.lr.pos]
	lrow, _, _ := h.lr.next(limit)
	return lrow, h.table.cands(e), true, nil
}

func (h *hashJoinIter) NextBatch(b *Batch) error {
	if h.idle {
		b.setEmpty()
		return nil
	}
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
	if h.idle {
		h.idle = false
		return nil
	}
	return h.left.it.Close()
}

// nlJoinIter is a nested-loops join with a materialized right side.
// Like the hash join, it leaves its left side unopened when the right
// side is empty and the kind needs a match (idle).
type nlJoinIter struct {
	left, right *node
	em          joinEmit
	lr          rowReader
	next        probeFn
	rrows       []types.Row
	rb          Batch
	idle        bool
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
	if n.idle = len(n.rrows) == 0 && needsMatch(n.em.kind); n.idle {
		return nil
	}
	return n.left.it.Open()
}

// probe pairs the next left row with the whole right side.
func (n *nlJoinIter) probe(limit int) (types.Row, []types.Row, bool, error) {
	lrow, ok, err := n.lr.next(limit)
	return lrow, n.rrows, ok, err
}

func (n *nlJoinIter) NextBatch(b *Batch) error {
	if n.idle {
		b.setEmpty()
		return nil
	}
	return n.em.run(b, n.next)
}

func (n *nlJoinIter) Close() error {
	if n.idle {
		n.idle = false
		return nil
	}
	return n.left.it.Close()
}

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

// graceJoin runs the probe side of a spilled hash join. Phase one
// streams the left input into probe partition files aligned with the
// spilled build partitions, emitting NULL-key rows' outer/anti results
// inline (NULL keys never match, so they need no partition at all).
// Phase two joins each partition pair with a hash join over the two
// files at the next level: one whose build still overflows the budget
// spills and repartitions both files on the next hash bits (recursive
// skew handling), until the bits run out and a partition is processed
// unbounded.
type graceJoin struct {
	h *hashJoinIter
	// shared marks level-0 build partitions owned by a cross-worker
	// sharedBuild: they must survive this worker (the run's spill
	// registry removes them at the end).
	shared bool

	build       [spillFanout]*spillFile
	probe       *spillSet
	partitioned bool
	part        int           // the next partition of phase two
	pair        *hashJoinIter // the partition pair being joined
}

func newGraceJoin(h *hashJoinIter, bset *spillSet, shared bool) *graceJoin {
	return &graceJoin{h: h, shared: shared, build: bset.parts, probe: newSpillSet(h.ctx, bset.level)}
}

func (g *graceJoin) produce(b *Batch) error {
	h := g.h
	em := h.em
	em.out = em.out[:0]
	// Phase one: partition the probe stream.
	for limit := b.limit(); !g.partitioned && len(em.out) < limit; {
		if h.lr.spent() {
			ok, err := h.lr.pull(0)
			if err != nil {
				return err
			}
			if !ok {
				if err := g.probe.finish(); err != nil {
					return err
				}
				g.partitioned = true
				break
			}
			h.kr.read(&h.lr.b, h.lOrds)
		}
		ri := h.kr.sel[h.lr.pos]
		lrow, _, _ := h.lr.next(0)
		if h.kr.hasNull(ri) {
			em.unmatched(lrow)
			continue
		}
		if err := g.probe.add(h.kr.hash[ri], lrow); err != nil {
			return err
		}
	}
	if len(em.out) > 0 || !g.partitioned {
		b.set(em.out, nil)
		return nil
	}
	// Phase two: join the partition pairs in turn.
	for {
		if g.pair == nil {
			for g.part < spillFanout && g.probe.parts[g.part] == nil {
				// No probe rows reached this partition; its build rows can
				// never match or be emitted.
				g.part++
			}
			if g.part == spillFanout {
				b.setEmpty()
				return nil
			}
			g.pair = g.pairJoin(g.part)
			g.probe.parts[g.part], g.build[g.part] = nil, nil
			g.part++
			if err := g.pair.Open(); err != nil {
				return err
			}
		}
		if err := g.pair.NextBatch(b); err != nil || b.Len() > 0 {
			return err
		}
		err := g.pair.Close()
		g.pair = nil
		if err != nil {
			return err
		}
	}
}

// pairJoin is the hash join of partition p's files at the next level.
// Both files are dropped as they are closed, except a build partition
// of a shared build. Their rows count toward RowBudget.
func (g *graceJoin) pairJoin(p int) *hashJoinIter {
	h := g.h
	probe := &fileIter{ctx: h.ctx, f: g.probe.parts[p], drop: true}
	build := &fileIter{ctx: h.ctx, f: g.build[p], drop: !g.shared, charge: true}
	pair := &hashJoinIter{ctx: h.ctx, left: &node{it: probe}, right: &node{it: build},
		lOrds: h.lOrds, rOrds: h.rOrds, level: g.probe.level + 1, st: h.st, em: h.em,
		lr: rowReader{it: probe, charge: h.ctx}}
	pair.next = pair.probe
	return pair
}

// release tears down mid-probe state on Close (early termination).
// Files owned by this worker drop now; shared build partitions are
// left for the run's spill registry.
func (g *graceJoin) release() {
	if g.pair != nil {
		g.pair.right.it.Close()
		g.pair.Close()
		g.pair = nil
	}
	g.probe.dropAll()
	for i, bf := range g.build {
		if bf != nil && !g.shared {
			bf.drop(g.h.ctx)
		}
		g.build[i] = nil
	}
}
