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
		it := &hashJoinIter{ctx: ctx, kind: j.Kind, left: left, right: right,
			lOrds: lOrds, rOrds: rOrds, residual: algebra.ConjoinAll(residual...),
			sizeHint: estimateRows(ctx, j.Right), st: ctx.traceStats(j)}
		if ctx.isWorker && algebra.OuterRefs(j.Right).Empty() {
			// Parallel workers probing the same join build the table once:
			// the first worker to Open builds, the rest share it read-only.
			it.shared = ctx.shared.buildFor(j)
		}
		return newNode(it, outCols), nil
	}
	it := &nlJoinIter{ctx: ctx, kind: j.Kind, left: left, right: right, on: j.On}
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

// hashJoinIter builds a hash table on the right input and probes with
// the left, supporting inner, left outer, semi and antisemi variants.
// SQL equality semantics: NULL keys never match.
type hashJoinIter struct {
	ctx          *Context
	kind         algebra.JoinKind
	left, right  *node
	lOrds, rOrds []int
	residual     algebra.Scalar
	// sizeHint preallocates the build map (cardinality estimate).
	sizeHint int
	// shared, when non-nil, is the cross-worker build slot: the first
	// worker to Open builds the table, later workers reuse it read-only.
	shared *sharedBuild
	// st collects memory/spill statistics for EXPLAIN ANALYZE.
	st *OpStats

	table   map[uint64][]types.Row
	cenv    combinedEnv
	lrow    types.Row
	matches []types.Row
	midx    int
	haveL   bool
	matched bool
	rWidth  int

	// charged is the build table's accounted bytes (private builds
	// release it on Close; a shared build's memory is genuinely held
	// for the rest of the query and stays accounted).
	charged int64
	// grace, when non-nil, runs the probe side Grace-style against
	// spilled build partitions (the build overflowed MemBudget).
	grace *graceJoin

	prepped   bool
	residComp eval.CompiledPred
	lb        Batch
	lbPos     int
	outBuf    []types.Row
	arena     rowArena // backs joined output rows
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
	h.rWidth = len(h.right.cols)
	h.cenv = combinedEnv{ctx: h.ctx, lords: h.left.ords, rords: h.right.ords}
	h.haveL = false
	h.lb.setEmpty()
	h.lbPos = 0
	if !h.prepped {
		h.prepped = true
		if comp := h.ctx.compiler(h.left.ords); comp != nil {
			comp.Ords2 = h.right.ords
			if h.residual != nil && !algebra.IsTrueConst(h.residual) {
				h.residComp = comp.CompilePred(h.residual)
			}
		}
	}
	return h.left.it.Open()
}

// buildTable drains the right input into the probe hash table. Under a
// memory budget, crossing it degrades to a Grace build: the resident
// rows are dumped into level-0 partition files, the rest of the input
// streams there directly, and the returned spillSet replaces the table.
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
			over, err := h.ctx.grantMem(h.st, "Join", rowBytes(row))
			if err != nil {
				return err
			}
			h.charged += rowBytes(row)
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
	fail := func(err error) (map[uint64][]types.Row, *spillSet, error) {
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
	if !h.ctx.DisableBatch {
		// Batched build: drain the right input a batch at a time (the
		// row headers are copied into the table, so reused batch
		// buffers below are safe).
		var rb Batch
		for {
			if err := nextBatch(h.right.it, &rb); err != nil {
				return fail(err)
			}
			live := rb.Len()
			if live == 0 {
				break
			}
			for i := 0; i < live; i++ {
				if err := insert(rb.Row(i)); err != nil {
					return fail(err)
				}
			}
		}
	} else {
		for {
			row, ok, err := h.right.it.Next()
			if err != nil {
				return fail(err)
			}
			if !ok {
				break
			}
			if err := insert(row); err != nil {
				return fail(err)
			}
		}
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

func (h *hashJoinIter) Next() (types.Row, bool, error) {
	return h.nextRow(false)
}

// NextBatch assembles up to BatchSize joined rows, pulling left rows
// from an internal batch cursor and checking the residual with its
// compiled form.
func (h *hashJoinIter) NextBatch(b *Batch) error {
	if h.outBuf == nil {
		h.outBuf = make([]types.Row, 0, BatchSize)
	}
	out := h.outBuf[:0]
	for len(out) < BatchSize {
		row, ok, err := h.nextRow(true)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		out = append(out, row)
	}
	h.outBuf = out
	b.Rows, b.Sel = out, nil
	return nil
}

// leftNext pulls the next probe row: directly in row mode, through
// the internal batch cursor in batch mode.
func (h *hashJoinIter) leftNext(batched bool) (types.Row, bool, error) {
	if !batched {
		lrow, ok, err := h.left.it.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if err := h.ctx.charge(); err != nil {
			return nil, false, err
		}
		return lrow, true, nil
	}
	for h.lbPos >= h.lb.Len() {
		if err := nextBatch(h.left.it, &h.lb); err != nil {
			return nil, false, err
		}
		h.lbPos = 0
		if h.lb.Len() == 0 {
			return nil, false, nil
		}
		if err := h.ctx.chargeN(h.lb.Len()); err != nil {
			return nil, false, err
		}
	}
	row := h.lb.Row(h.lbPos)
	h.lbPos++
	return row, true, nil
}

// residualPass evaluates the residual predicate on a candidate row
// pair, compiled in batch mode and interpreted otherwise.
func (h *hashJoinIter) residualPass(batched bool, lrow, rrow types.Row) (bool, error) {
	if h.residComp != nil && batched {
		fr := eval.Frame{Row: lrow, Row2: rrow, Outer: h.ctx.params}
		v, err := h.residComp(&fr)
		if err != nil {
			return false, err
		}
		return v == types.TriTrue, nil
	}
	if h.residual != nil && !algebra.IsTrueConst(h.residual) {
		h.cenv.lrow, h.cenv.rrow = lrow, rrow
		v, err := h.ctx.ev.EvalBool(h.residual, &h.cenv)
		if err != nil {
			return false, err
		}
		return v == types.TriTrue, nil
	}
	return true, nil
}

// nextRow is the probe state machine, shared by the row and batch
// pull modes (they differ only in how left rows arrive and which
// residual evaluator runs).
func (h *hashJoinIter) nextRow(batched bool) (types.Row, bool, error) {
	if h.grace != nil {
		return h.grace.next(batched)
	}
	for {
		if !h.haveL {
			lrow, ok, err := h.leftNext(batched)
			if err != nil || !ok {
				return nil, false, err
			}
			h.lrow = lrow
			h.haveL = true
			h.matched = false
			h.midx = 0
			if rowHasNullAt(lrow, h.lOrds) {
				h.matches = nil
			} else {
				h.matches = h.table[types.HashRow(lrow, h.lOrds)]
			}
		}
		for h.midx < len(h.matches) {
			rrow := h.matches[h.midx]
			h.midx++
			if !types.EqualRows(h.lrow, h.lOrds, rrow, h.rOrds) {
				continue
			}
			pass, err := h.residualPass(batched, h.lrow, rrow)
			if err != nil {
				return nil, false, err
			}
			if !pass {
				continue
			}
			h.matched = true
			switch h.kind {
			case algebra.SemiJoin:
				h.haveL = false
				return h.lrow, true, nil
			case algebra.AntiSemiJoin:
				h.haveL = false
				// fall to next left row via loop (no emission)
			default:
				return h.arena.concat(h.lrow, rrow), true, nil
			}
			if h.kind == algebra.AntiSemiJoin {
				break
			}
		}
		// exhausted matches for this left row
		wasMatched := h.matched
		if h.haveL {
			h.haveL = false
			switch h.kind {
			case algebra.AntiSemiJoin:
				if !wasMatched {
					return h.lrow, true, nil
				}
			case algebra.LeftOuterJoin:
				if !wasMatched {
					return h.arena.padNulls(h.lrow, h.rWidth), true, nil
				}
			}
		}
	}
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
	ctx         *Context
	kind        algebra.JoinKind
	left, right *node
	on          algebra.Scalar

	rrows   []types.Row
	cenv    combinedEnv
	lrow    types.Row
	haveL   bool
	matched bool
	ridx    int
	arena   rowArena
}

func (n *nlJoinIter) Open() error {
	if err := n.right.it.Open(); err != nil {
		return err
	}
	n.rrows = n.rrows[:0]
	for {
		row, ok, err := n.right.it.Next()
		if err != nil {
			n.right.it.Close()
			return err
		}
		if !ok {
			break
		}
		n.rrows = append(n.rrows, row)
	}
	if err := n.right.it.Close(); err != nil {
		return err
	}
	n.cenv = combinedEnv{ctx: n.ctx, lords: n.left.ords, rords: n.right.ords}
	n.haveL = false
	return n.left.it.Open()
}

func (n *nlJoinIter) Next() (types.Row, bool, error) {
	for {
		if !n.haveL {
			lrow, ok, err := n.left.it.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			n.lrow = lrow
			n.haveL = true
			n.matched = false
			n.ridx = 0
		}
		for n.ridx < len(n.rrows) {
			rrow := n.rrows[n.ridx]
			n.ridx++
			if err := n.ctx.charge(); err != nil {
				return nil, false, err
			}
			pass := true
			if n.on != nil && !algebra.IsTrueConst(n.on) {
				n.cenv.lrow, n.cenv.rrow = n.lrow, rrow
				v, err := n.ctx.ev.EvalBool(n.on, &n.cenv)
				if err != nil {
					return nil, false, err
				}
				pass = v == types.TriTrue
			}
			if !pass {
				continue
			}
			n.matched = true
			switch n.kind {
			case algebra.SemiJoin:
				n.haveL = false
				return n.lrow, true, nil
			case algebra.AntiSemiJoin:
				n.haveL = false
			default:
				return n.arena.concat(n.lrow, rrow), true, nil
			}
			if n.kind == algebra.AntiSemiJoin {
				break
			}
		}
		wasMatched := n.matched
		if n.haveL {
			n.haveL = false
			switch n.kind {
			case algebra.AntiSemiJoin:
				if !wasMatched {
					return n.lrow, true, nil
				}
			case algebra.LeftOuterJoin:
				if !wasMatched {
					return n.arena.padNulls(n.lrow, len(n.right.cols)), true, nil
				}
			}
		}
	}
}

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
	for {
		row, ok, err := s.in.Next()
		if err != nil {
			s.in.Close()
			s.release()
			return err
		}
		if !ok {
			break
		}
		if governed {
			// The spool cannot spill; over-budget usage stays visible in
			// the accountant and only aborts under DisableSpill.
			n := rowBytes(row)
			if _, err := s.ctx.grantMem(s.st, "Spool", n); err != nil {
				s.in.Close()
				s.release()
				return err
			}
			s.charged += n
		}
		s.rows = append(s.rows, row)
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

func (s *spoolIter) Next() (types.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, true, nil
}

func (s *spoolIter) Close() error { return nil }

type applyIter struct {
	ctx         *Context
	a           *algebra.Apply
	left, right *node
	// spool is set when the invariant inner side was wrapped in a
	// spool; the apply owns its teardown (see spoolIter.release).
	spool *spoolIter
	// st, when tracing, carries the strategy and binding counters
	// shared with the traceIter wrapping this operator.
	st *OpStats

	cenv    combinedEnv
	lrow    types.Row
	haveL   bool
	rOpen   bool
	matched bool
	// saved holds parameter values shadowed by bindLeft, so nested
	// Apply scopes binding overlapping columns restore correctly.
	saved []savedParam
	arena rowArena
}

type savedParam struct {
	col algebra.ColID
	val types.Datum
	had bool
}

func (ap *applyIter) Open() error {
	ap.cenv = combinedEnv{ctx: ap.ctx, lords: ap.left.ords, rords: ap.right.ords}
	ap.haveL = false
	ap.rOpen = false
	return ap.left.it.Open()
}

func (ap *applyIter) bindLeft() {
	ap.saved = ap.saved[:0]
	for i, c := range ap.left.cols {
		prev, had := ap.ctx.params[c]
		ap.saved = append(ap.saved, savedParam{col: c, val: prev, had: had})
		ap.ctx.params[c] = ap.lrow[i]
	}
}

func (ap *applyIter) unbindLeft() {
	for _, s := range ap.saved {
		if s.had {
			ap.ctx.params[s.col] = s.val
		} else {
			delete(ap.ctx.params, s.col)
		}
	}
	ap.saved = ap.saved[:0]
}

func (ap *applyIter) Next() (types.Row, bool, error) {
	for {
		if !ap.haveL {
			lrow, ok, err := ap.left.it.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			if err := ap.ctx.charge(); err != nil {
				return nil, false, err
			}
			ap.lrow = lrow
			ap.haveL = true
			ap.matched = false
			ap.bindLeft()
			if ap.st != nil {
				// Sequential execution runs the inner per outer row:
				// every binding is its own execution.
				ap.st.Bindings++
				ap.st.InnerExecs++
			}
			if err := ap.right.it.Open(); err != nil {
				return nil, false, err
			}
			ap.rOpen = true
		}
		for {
			rrow, ok, err := ap.right.it.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			pass := true
			if ap.a.On != nil && !algebra.IsTrueConst(ap.a.On) {
				ap.cenv.lrow, ap.cenv.rrow = ap.lrow, rrow
				v, err := ap.ctx.ev.EvalBool(ap.a.On, &ap.cenv)
				if err != nil {
					return nil, false, err
				}
				pass = v == types.TriTrue
			}
			if !pass {
				continue
			}
			ap.matched = true
			switch ap.a.Kind {
			case algebra.SemiJoin:
				ap.endLeft()
				return ap.lrow, true, nil
			case algebra.AntiSemiJoin:
				ap.endLeft()
			default:
				return ap.arena.concat(ap.lrow, rrow), true, nil
			}
			if ap.a.Kind == algebra.AntiSemiJoin {
				break
			}
		}
		wasMatched := ap.matched
		if ap.haveL {
			ap.endLeft()
			switch ap.a.Kind {
			case algebra.AntiSemiJoin:
				if !wasMatched {
					return ap.lrow, true, nil
				}
			case algebra.LeftOuterJoin:
				if !wasMatched {
					return ap.arena.padNulls(ap.lrow, len(ap.right.cols)), true, nil
				}
			}
		}
	}
}

func (ap *applyIter) endLeft() {
	if ap.rOpen {
		ap.right.it.Close()
		ap.rOpen = false
	}
	ap.unbindLeft()
	ap.haveL = false
}

func (ap *applyIter) Close() error {
	if ap.rOpen {
		ap.right.it.Close()
		ap.rOpen = false
	}
	if ap.spool != nil {
		ap.spool.release()
	}
	return ap.left.it.Close()
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

	lrow    types.Row
	haveL   bool
	matched bool
	matches []types.Row
	midx    int
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
	return g
}

func (g *graceJoin) next(batched bool) (types.Row, bool, error) {
	h := g.h
	// Phase one: partition the probe stream.
	for !g.partitioned {
		lrow, ok, err := h.leftNext(batched)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if err := g.probe.finish(); err != nil {
				return nil, false, err
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
			switch h.kind {
			case algebra.AntiSemiJoin:
				return lrow, true, nil
			case algebra.LeftOuterJoin:
				return h.arena.padNulls(lrow, h.rWidth), true, nil
			}
			continue
		}
		if err := g.probe.add(types.HashRow(lrow, h.lOrds), lrow); err != nil {
			return nil, false, err
		}
	}
	// Phase two: drain partition pairs.
	for {
		if !g.curActive {
			if len(g.work) == 0 {
				return nil, false, nil
			}
			pair := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			split, err := g.startPair(pair)
			if err != nil {
				return nil, false, err
			}
			if split {
				continue // repartitioned into finer pairs
			}
		}
		row, ok, err := g.subNext(batched)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
		g.endPair()
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
				over, gerr := h.ctx.grantMem(h.st, "Join", rowBytes(row))
				if gerr != nil {
					rd.close()
					release()
					return false, gerr
				}
				charged += rowBytes(row)
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
	g.haveL = false
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

// subNext replays the current pair's probe file against its in-memory
// build table with the standard probe semantics.
func (g *graceJoin) subNext(batched bool) (types.Row, bool, error) {
	h := g.h
	for {
		if !g.haveL {
			lrow, ok, err := g.rd.next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			if err := h.ctx.charge(); err != nil {
				return nil, false, err
			}
			g.lrow = lrow
			g.haveL = true
			g.matched = false
			g.midx = 0
			g.matches = g.table[types.HashRow(lrow, h.lOrds)]
		}
		for g.midx < len(g.matches) {
			rrow := g.matches[g.midx]
			g.midx++
			if !types.EqualRows(g.lrow, h.lOrds, rrow, h.rOrds) {
				continue
			}
			pass, err := h.residualPass(batched, g.lrow, rrow)
			if err != nil {
				return nil, false, err
			}
			if !pass {
				continue
			}
			g.matched = true
			switch h.kind {
			case algebra.SemiJoin:
				g.haveL = false
				return g.lrow, true, nil
			case algebra.AntiSemiJoin:
				g.haveL = false
			default:
				return h.arena.concat(g.lrow, rrow), true, nil
			}
			if h.kind == algebra.AntiSemiJoin {
				break
			}
		}
		wasMatched := g.matched
		if g.haveL {
			g.haveL = false
			switch h.kind {
			case algebra.AntiSemiJoin:
				if !wasMatched {
					return g.lrow, true, nil
				}
			case algebra.LeftOuterJoin:
				if !wasMatched {
					return h.arena.padNulls(g.lrow, h.rWidth), true, nil
				}
			}
		}
	}
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
	g.haveL = false
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
