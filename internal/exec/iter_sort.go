package exec

import (
	"slices"

	"orthoq/internal/algebra"
	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
)

// Sorted-input streaming aggregation: with the ordered index walk that
// makes a Get's Order property real (tableIter), it lets plans chosen
// by the optimizer's sort-property rules (Get.Order set, Sorts elided)
// execute without materializing — the walk reads the index
// permutation, the aggregation holds one group of state at a time.

// streamAggIter implements vector, scalar and local GroupBy over
// grouped input: rows of each group arrive contiguously (the compiler
// picks it only where the input's delivered order covers the group
// columns — AggAlg), so the operator holds one open group of aggregate
// state between batches and emits each group once its last row has
// passed. Streaming output in input-group order.
//
// A batch is folded whole: one typed pass per key column marks where
// each row's key differs from the row before it (markRuns), the runs
// are numbered — run 0 continues the group left open by the last batch
// — and every aggregate argument folds into a batch-local state array
// indexed by run with the typed loops of hash aggregation (foldAgg).
// The completed runs render into one block of rows, and the last run's
// state moves to slot 0, the open group of the next batch.
type streamAggIter struct {
	ctx  *Context
	in   *node
	gb   *algebra.GroupBy
	cols []algebra.ColID
	st   *OpStats

	keyOrds []int
	curKey  types.Row  // the open group's key
	states  []aggState // [aggregate], indexed by run; slot 0 is the open group
	started bool       // a group is open
	done    bool

	av     *aggVec
	ib     Batch
	brk    []bool  // brk[k]: live row k starts a run
	runs   []int32 // each live row's run
	starts []int   // each run's first live row
	out    []types.Row
	outPos int
}

func (s *streamAggIter) Open() error {
	keyOrds, err := aggKeyOrds(s.in, s.gb)
	if err != nil {
		return err
	}
	s.keyOrds = keyOrds
	if s.states == nil {
		s.av = newAggVec(s.ctx, s.in.ords, s.gb)
		s.curKey = make(types.Row, len(keyOrds))
		s.states = newAggStates(s.gb.Aggs)
	}
	s.started = false
	s.done = false
	s.ib.setEmpty()
	s.out, s.outPos = s.out[:0], 0
	return s.in.it.Open()
}

// markRuns sets brk[k] for every live row k > 0 whose entry in v
// differs from live row k-1's, under types.Compare: a NaN equals a NaN,
// -0 equals 0 and NULL equals NULL. A typed column without NULLs
// compares its payloads; any other column compares boxed entries.
func markRuns(brk []bool, v *eval.Vec, sel []int) {
	typed := v.D == nil && v.Null == nil
	switch {
	case v.D == nil && v.Kind == types.Unknown:
		// Every key is NULL: one run.
	case typed && (v.Kind == types.Int || v.Kind == types.Date || v.Kind == types.Bool):
		for k := 1; k < len(sel); k++ {
			brk[k] = brk[k] || v.I[sel[k]] != v.I[sel[k-1]]
		}
	case typed && v.Kind == types.Float:
		for k := 1; k < len(sel); k++ {
			x, y := v.F[sel[k]], v.F[sel[k-1]]
			brk[k] = brk[k] || !(x == y || x != x && y != y)
		}
	case typed && v.Kind == types.String:
		for k := 1; k < len(sel); k++ {
			brk[k] = brk[k] || v.S[sel[k]] != v.S[sel[k-1]]
		}
	default:
		for k := 1; k < len(sel); k++ {
			brk[k] = brk[k] || types.Compare(v.Datum(sel[k]), v.Datum(sel[k-1])) != 0
		}
	}
}

// number numbers the runs of the live rows sel: a row's run is its
// slot in the batch's state arrays. Run 0 is the open group, which the
// first row continues when its key is the open group's; every other
// run starts at a marked row. It returns the last run.
func (s *streamAggIter) number(keys []*eval.Vec, sel []int) int {
	s.brk = fit(s.brk, 0, len(sel))
	for _, v := range keys {
		markRuns(s.brk, v, sel)
	}
	s.brk[0] = !s.started
	for j, v := range keys {
		if !s.brk[0] && types.Compare(v.Datum(sel[0]), s.curKey[j]) != 0 {
			s.brk[0] = true
		}
	}
	s.runs = slices.Grow(s.runs[:0], len(sel))
	s.starts = append(slices.Grow(s.starts[:0], len(sel)+1), 0)
	r := int32(0)
	for k, b := range s.brk {
		if b {
			r++
			s.starts = append(s.starts, k)
		}
		s.runs = append(s.runs, r)
	}
	return int(r)
}

// fill consumes input batches until at least one group completes or
// the input ends, queueing the completed groups in out.
func (s *streamAggIter) fill() error {
	s.out, s.outPos = s.out[:0], 0
	for len(s.out) == 0 && !s.done {
		if err := s.in.it.NextBatch(&s.ib); err != nil {
			return err
		}
		live := s.ib.Len()
		if live == 0 {
			s.finish()
			return nil
		}
		if err := s.ctx.chargeN(live); err != nil {
			return err
		}
		rows := s.ib.Rows
		s.av.frame.ResetStored(rows, s.ctx.params, s.ib.at)
		sel := s.ib.Sel
		if sel == nil {
			sel = s.av.frame.Identity(len(rows))
		}
		keys := s.av.keyVecs(s.keyOrds, sel)
		if err := s.av.eval(sel); err != nil {
			return err
		}
		last := s.number(keys, sel)
		for j := range s.states {
			s.states[j].fit(1, last+1)
			foldAgg(&s.states[j], s.av.vecs[j], sel, s.runs)
		}
		if last == 0 {
			s.started = true
			continue
		}
		// Runs [first, last) are complete; run 0 holds a group only when
		// one was open.
		first := 1
		if s.started {
			first = 0
		}
		s.render(keys, sel, first, last)
		for j, v := range keys {
			s.curKey[j] = v.Datum(sel[s.starts[last]])
		}
		for j := range s.states {
			s.states[j].move(0, last)
		}
		s.started = true
	}
	return nil
}

// render queues runs [first, last) as result rows carved from one
// block allocated for the batch: each run's key (the open group's for
// run 0), then its aggregates.
func (s *streamAggIter) render(keys []*eval.Vec, sel []int, first, last int) {
	w := len(s.keyOrds) + len(s.states)
	block := make([]types.Datum, 0, (last-first)*w)
	for r := first; r < last; r++ {
		if r == 0 {
			block = append(block, s.curKey...)
		} else {
			for _, v := range keys {
				block = append(block, v.Datum(sel[s.starts[r]]))
			}
		}
		for j := range s.states {
			block = append(block, s.states[j].result(r))
		}
		s.out = append(s.out, block[len(block)-w:len(block):len(block)])
	}
}

// finish ends the stream: the open group, or the empty-input row of a
// scalar aggregation.
func (s *streamAggIter) finish() {
	s.done = true
	switch {
	case s.started:
		row := append(make(types.Row, 0, len(s.curKey)+len(s.states)), s.curKey...)
		for j := range s.states {
			row = append(row, s.states[j].result(0))
		}
		s.out = append(s.out, row)
	case s.gb.Kind == algebra.ScalarGroupBy:
		s.out = append(s.out, emptyAggRow(s.gb))
	}
}

// NextBatch serves the queued groups, refilling the queue when it runs
// out.
func (s *streamAggIter) NextBatch(b *Batch) error {
	if s.outPos >= len(s.out) && !s.done {
		if err := s.fill(); err != nil {
			return err
		}
	}
	b.serve(s.out, &s.outPos)
	return nil
}

func (s *streamAggIter) Close() error { return s.in.it.Close() }
