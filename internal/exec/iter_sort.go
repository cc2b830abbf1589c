package exec

import (
	"orthoq/internal/algebra"
	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

// Order-aware physical operators: the ordered index scan that makes a
// Get's Order property real, and sorted-input streaming aggregation.
// Both exist so plans chosen by the optimizer's sort-property rules
// (Get.Order set, Sorts elided) execute without materializing: the
// scan walks the index permutation, the aggregation holds one group of
// state at a time.

// StreamAggApplicable reports whether gb's input delivers an order
// that makes every group contiguous, i.e. whether the aggregation can
// stream over sorted input without a hash table. Pure on the logical
// tree — shared by the compiler, the cost model, and EXPLAIN.
func StreamAggApplicable(gb *algebra.GroupBy) bool {
	return algebra.GroupedBy(algebra.DeliveredOrder(gb.Input), gb.GroupCols)
}

// MergeJoinApplicable reports whether j would stream as a merge join
// under auto selection: equality keys exist and both inputs already
// deliver a covering ascending order. Pure on the logical tree —
// shared by the compiler, the cost model, and EXPLAIN.
func MergeJoinApplicable(j *algebra.Join) bool {
	lKeys, rKeys, _ := SplitJoinKeys(j.On,
		algebra.OutputCols(j.Left), algebra.OutputCols(j.Right))
	return MergeKeysSorted(j, lKeys, rKeys)
}

// MergeKeysSorted is MergeJoinApplicable for a caller that has already
// split j's equality keys.
func MergeKeysSorted(j *algebra.Join, lKeys, rKeys []algebra.ColID) bool {
	if len(lKeys) == 0 {
		return false
	}
	_, _, lSorted, rSorted := mergeKeySeq(j, lKeys, rKeys)
	return lSorted && rSorted
}

// ascOrder renders a key column sequence as an ascending ordering.
func ascOrder(cols []algebra.ColID) []algebra.Ordering {
	by := make([]algebra.Ordering, len(cols))
	for i, c := range cols {
		by[i] = algebra.Ordering{Col: c}
	}
	return by
}

// sortWrapNode wraps a compiled input in an explicit ascending sort on
// cols — the fallback that keeps forced merge joins and forced
// streaming aggregations correct over unordered inputs. The sort's
// memory is attributed to the enclosing operator's stats slot.
func sortWrapNode(ctx *Context, in *node, cols []algebra.ColID, at algebra.Rel) *node {
	return newNode(&sortIter{ctx: ctx, in: in, by: ascOrder(cols), st: ctx.traceStats(at)}, in.cols)
}

// compileOrderedGet lowers a Get carrying an Order requirement: an
// ordered index scan when a fresh index delivers the order, else a
// full scan under an explicit sort (the correctness net for stale
// indexes — rows inserted after the last BuildIndexes are visible to
// scans but not covered by index permutations). The full filter stays
// as a per-row residual; ordered delivery precludes the seek path.
func compileOrderedGet(ctx *Context, g *algebra.Get, tbl *storage.Version, filter algebra.Scalar) (*node, error) {
	if !ctx.DisableOrderOpt {
		if perm, reverse, ok := orderedPerm(tbl, g); ok {
			it := &orderedScanIter{ctx: ctx, tbl: tbl, perm: perm, reverse: reverse,
				cols: g.Cols, pred: filter}
			return newNode(it, g.Cols), nil
		}
	}
	base := newNode(&scanIter{ctx: ctx, tbl: tbl, cols: g.Cols, pred: filter}, g.Cols)
	return newNode(&sortIter{ctx: ctx, in: base, by: g.Order, st: ctx.traceStats(g)}, g.Cols), nil
}

// orderedPerm finds an ordered index whose leading columns match the
// Get's Order requirement and returns its (fresh) permutation. All
// keys ascending walks it forward; all keys descending walks it
// backward; mixed directions cannot use a single permutation.
func orderedPerm(tbl *storage.Version, g *algebra.Get) (perm []int, reverse bool, ok bool) {
	allAsc, allDesc := true, true
	for _, o := range g.Order {
		if o.Desc {
			allAsc = false
		} else {
			allDesc = false
		}
	}
	if !allAsc && !allDesc {
		return nil, false, false
	}
	ords := make([]int, len(g.Order))
	for i, o := range g.Order {
		ords[i] = -1
		for j, id := range g.Cols {
			if id == o.Col {
				ords[i] = j
				break
			}
		}
		if ords[i] < 0 {
			return nil, false, false
		}
	}
	for _, idx := range tbl.Schema.Indexes {
		if !idx.Ordered || len(idx.Cols) < len(ords) {
			continue
		}
		match := true
		for i, o := range ords {
			if idx.Cols[i] != o {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if perm, ok := tbl.OrderedScan(idx.Name); ok {
			return perm, allDesc && len(g.Order) > 0, true
		}
	}
	return nil, false, false
}

// orderedScanIter walks a table in index-permutation order, applying
// the residual predicate. The filter preserves order, so downstream
// operators see exactly the Get's promised ordering.
type orderedScanIter struct {
	ctx     *Context
	tbl     *storage.Version
	perm    []int
	reverse bool
	cols    []algebra.ColID
	pred    algebra.Scalar
	pos     int // position within perm (already direction-adjusted)
	env     rowEnv
	ords    map[algebra.ColID]int

	prepped bool
	conjs   []eval.CompiledPred
	selBuf  []int
	rowBuf  []types.Row
}

// at returns the perm index for logical position i under the scan
// direction.
func (s *orderedScanIter) at(i int) int {
	if s.reverse {
		return len(s.perm) - 1 - i
	}
	return i
}

func (s *orderedScanIter) Open() error {
	s.pos = 0
	if s.ords == nil {
		s.ords = make(map[algebra.ColID]int, len(s.cols))
		for i, c := range s.cols {
			s.ords[c] = i
		}
	}
	s.env = rowEnv{ctx: s.ctx, ords: s.ords}
	if !s.prepped {
		s.prepped = true
		if comp := s.ctx.compiler(s.ords); comp != nil {
			s.conjs = comp.CompileConjuncts(s.pred)
		}
	}
	return nil
}

// NextBatch gathers permutation windows into an iterator-owned buffer
// and filters them with the compiled conjuncts; windows preserve the
// permutation order.
func (s *orderedScanIter) NextBatch(b *Batch) error {
	rows := s.tbl.AllRows()
	for {
		if s.pos >= len(s.perm) {
			b.setEmpty()
			return nil
		}
		end := s.pos + BatchSize
		if end > len(s.perm) {
			end = len(s.perm)
		}
		cand := s.rowBuf[:0]
		for i := s.pos; i < end; i++ {
			cand = append(cand, rows[s.perm[s.at(i)]])
		}
		s.rowBuf = cand
		s.pos = end
		if err := s.ctx.chargeN(len(cand)); err != nil {
			return err
		}
		if len(s.conjs) == 0 {
			b.Rows, b.Sel = cand, nil
			return nil
		}
		sel := s.selBuf[:0]
		for i := range cand {
			sel = append(sel, i)
		}
		s.selBuf = sel
		fr := eval.Frame{Outer: s.ctx.params}
		sel, err := applyConjuncts(s.conjs, cand, sel, &fr)
		if err != nil {
			return err
		}
		if len(sel) == 0 {
			continue
		}
		b.Rows, b.Sel = cand, sel
		return nil
	}
}

func (s *orderedScanIter) Next() (types.Row, bool, error) {
	rows := s.tbl.AllRows()
	for s.pos < len(s.perm) {
		row := rows[s.perm[s.at(s.pos)]]
		s.pos++
		if err := s.ctx.charge(); err != nil {
			return nil, false, err
		}
		ok, err := predTrue(s.ctx, s.pred, &s.env, row)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
	}
	return nil, false, nil
}

func (s *orderedScanIter) Close() error { return nil }

// streamAggIter implements vector, scalar and local GroupBy over
// grouped input: rows of each group arrive contiguously (guaranteed by
// the compiler — either the input's delivered order covers the group
// columns or an explicit sort was inserted), so the operator holds
// exactly one group of aggregate state and emits it at each group
// boundary. O(1) memory, streaming output in input-group order.
type streamAggIter struct {
	ctx  *Context
	in   *node
	gb   *algebra.GroupBy
	cols []algebra.ColID
	st   *OpStats

	prepped bool
	argFns  []eval.Compiled
	argOrds []int
	keyOrds []int
	env     rowEnv
	fr      eval.Frame

	curKey  types.Row
	states  []aggState
	started bool
	done    bool

	ib     Batch
	ibPos  int
	outBuf []types.Row
}

func (s *streamAggIter) Open() error {
	keyOrds, err := aggKeyOrds(s.in, s.gb)
	if err != nil {
		return err
	}
	s.keyOrds = keyOrds
	if !s.prepped {
		s.prepped = true
		s.argFns = compileAggArgs(s.ctx, s.in, s.gb)
		s.argOrds = make([]int, len(s.gb.Aggs))
		for j := range s.gb.Aggs {
			s.argOrds[j] = -1
			if cr, ok := s.gb.Aggs[j].Arg.(*algebra.ColRef); ok {
				if o, ok := s.in.ords[cr.Col]; ok {
					s.argOrds[j] = o
				}
			}
		}
	}
	s.env = rowEnv{ctx: s.ctx, ords: s.in.ords}
	s.fr = eval.Frame{Outer: s.ctx.params}
	if s.curKey == nil {
		s.curKey = make(types.Row, len(keyOrds))
	}
	if s.states == nil {
		s.states = make([]aggState, len(s.gb.Aggs))
	}
	s.started = false
	s.done = false
	s.ib.setEmpty()
	s.ibPos = 0
	return s.in.it.Open()
}

// nextInput pulls the next input row — directly in row mode, through
// an internal batch cursor otherwise — charging row productions.
func (s *streamAggIter) nextInput() (types.Row, bool, error) {
	if s.ctx.DisableBatch {
		row, ok, err := s.in.it.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if err := s.ctx.charge(); err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
	for s.ibPos >= s.ib.Len() {
		if err := nextBatch(s.in.it, &s.ib); err != nil {
			return nil, false, err
		}
		s.ibPos = 0
		if s.ib.Len() == 0 {
			return nil, false, nil
		}
		if err := s.ctx.chargeN(s.ib.Len()); err != nil {
			return nil, false, err
		}
	}
	row := s.ib.Row(s.ibPos)
	s.ibPos++
	return row, true, nil
}

// sameGroup reports whether row belongs to the current group. NULL
// group keys compare equal to each other (SQL GROUP BY semantics),
// matching both the sort order the input delivers and the hash
// aggregation's key equality.
func (s *streamAggIter) sameGroup(row types.Row) bool {
	for j, o := range s.keyOrds {
		if types.Compare(row[o], s.curKey[j]) != 0 {
			return false
		}
	}
	return true
}

func (s *streamAggIter) startGroup(row types.Row) {
	for j, o := range s.keyOrds {
		s.curKey[j] = row[o]
	}
	for i := range s.states {
		s.states[i] = aggState{}
	}
	s.started = true
}

func (s *streamAggIter) accum(row types.Row) error {
	s.fr.Row = row
	s.env.row = row
	for j := range s.gb.Aggs {
		var d types.Datum
		if o := s.argOrds[j]; o >= 0 {
			d = row[o]
		} else if s.argFns != nil && s.argFns[j] != nil {
			v, err := s.argFns[j](&s.fr)
			if err != nil {
				return err
			}
			d = v
		} else if s.gb.Aggs[j].Arg != nil {
			v, err := s.ctx.ev.Eval(s.gb.Aggs[j].Arg, &s.env)
			if err != nil {
				return err
			}
			d = v
		}
		s.states[j].add(&s.gb.Aggs[j], d)
	}
	return nil
}

// emit renders the current group's result row (key copied out — the
// key buffer is reused for the next group).
func (s *streamAggIter) emit() types.Row {
	row := make(types.Row, 0, len(s.curKey)+len(s.states))
	row = append(row, s.curKey...)
	for i := range s.states {
		row = append(row, s.states[i].result(&s.gb.Aggs[i]))
	}
	return row
}

func (s *streamAggIter) Next() (types.Row, bool, error) {
	if s.done {
		return nil, false, nil
	}
	for {
		row, ok, err := s.nextInput()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			if s.started {
				return s.emit(), true, nil
			}
			if s.gb.Kind == algebra.ScalarGroupBy {
				// Scalar aggregation returns exactly one row on empty
				// input (paper §1.1): agg(∅) per aggregate.
				out := make(types.Row, 0, len(s.gb.Aggs))
				for i := range s.gb.Aggs {
					var empty aggState
					out = append(out, empty.result(&s.gb.Aggs[i]))
				}
				return out, true, nil
			}
			return nil, false, nil
		}
		if s.started && !s.sameGroup(row) {
			out := s.emit()
			s.startGroup(row)
			if err := s.accum(row); err != nil {
				return nil, false, err
			}
			return out, true, nil
		}
		if !s.started {
			s.startGroup(row)
		}
		if err := s.accum(row); err != nil {
			return nil, false, err
		}
	}
}

// NextBatch assembles up to BatchSize result rows through the
// streaming state machine (rows are freshly allocated by emit, so the
// reused buffer is safe to hand off).
func (s *streamAggIter) NextBatch(b *Batch) error {
	if s.outBuf == nil {
		s.outBuf = make([]types.Row, 0, BatchSize)
	}
	out := s.outBuf[:0]
	for len(out) < BatchSize {
		row, ok, err := s.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		out = append(out, row)
	}
	s.outBuf = out
	b.Rows, b.Sel = out, nil
	return nil
}

func (s *streamAggIter) Close() error { return s.in.it.Close() }
