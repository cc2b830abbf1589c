package exec

import (
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
// columns — AggAlg), so the operator holds exactly one group of
// aggregate state and emits it at each group boundary. O(1) memory,
// streaming output in input-group order.
//
// It evaluates every aggregate argument once per input batch, cuts the
// batch into runs of one group, and folds each run into the single
// group's states with the typed loops of hash aggregation (foldAgg);
// completed groups queue in out, which NextBatch serves.
type streamAggIter struct {
	ctx  *Context
	in   *node
	gb   *algebra.GroupBy
	cols []algebra.ColID
	st   *OpStats

	keyOrds []int
	curKey  types.Row
	states  [][]aggState // [aggregate][0]: the current group
	started bool
	done    bool

	av     *aggVec
	ib     Batch
	out    []types.Row // completed groups not yet returned
	outPos int
	arena  rowArena
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
		s.states = make([][]aggState, len(s.gb.Aggs))
		for j := range s.states {
			s.states[j] = make([]aggState, 1)
		}
	}
	s.started = false
	s.done = false
	s.ib.setEmpty()
	s.out, s.outPos = s.out[:0], 0
	return s.in.it.Open()
}

// sameGroup reports whether the key vectors' entries at ri are the
// current group's key, in the order the input is sorted by
// (types.Compare). NULL group keys compare equal to each other (SQL
// GROUP BY semantics), and a NaN key differs from every number, as in
// the hash aggregation's key equality.
func (s *streamAggIter) sameGroup(keys []*eval.Vec, ri int) bool {
	for j, v := range keys {
		if types.Compare(v.Datum(ri), s.curKey[j]) != 0 {
			return false
		}
	}
	return true
}

func (s *streamAggIter) startGroup(row types.Row) {
	for j, o := range s.keyOrds {
		s.curKey[j] = row[o]
	}
	for j := range s.states {
		s.states[j][0] = aggState{}
	}
	s.started = true
}

// emit renders the current group's result row (key copied out — the
// key buffer is reused for the next group).
func (s *streamAggIter) emit() types.Row {
	row := append(s.arena.alloc(len(s.curKey)+len(s.states)), s.curKey...)
	for j := range s.states {
		row = append(row, s.states[j][0].result(&s.gb.Aggs[j]))
	}
	return row
}

// finish ends the stream: the open group, or the empty-input row of a
// scalar aggregation.
func (s *streamAggIter) finish() (types.Row, bool) {
	s.done = true
	if s.started {
		return s.emit(), true
	}
	if s.gb.Kind == algebra.ScalarGroupBy {
		return emptyAggRow(s.gb), true
	}
	return nil, false
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
			if row, ok := s.finish(); ok {
				s.out = append(s.out, row)
			}
			return nil
		}
		if err := s.ctx.chargeN(live); err != nil {
			return err
		}
		rows := s.ib.Rows
		s.av.frame.ResetStored(rows, s.ctx.params, s.ib.src, s.ib.off)
		sel := s.ib.Sel
		if sel == nil {
			sel = s.av.frame.Identity(len(rows))
		}
		keys := s.av.keyVecs(s.keyOrds, sel)
		if err := s.av.eval(sel); err != nil {
			return err
		}
		zeros := s.av.zeroGroups(len(sel))
		start := 0
		for k, ri := range sel {
			if s.started && s.sameGroup(keys, ri) {
				continue
			}
			if s.started {
				s.fold(sel[start:k], zeros[:k-start])
				s.out = append(s.out, s.emit())
			}
			s.startGroup(rows[ri])
			start = k
		}
		s.fold(sel[start:], zeros[:len(sel)-start])
	}
	return nil
}

// fold accumulates one run of the current group.
func (s *streamAggIter) fold(run []int, zeros []int32) {
	for j := range s.gb.Aggs {
		foldAgg(s.states[j], &s.gb.Aggs[j], s.av.vecs[j], run, zeros)
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
