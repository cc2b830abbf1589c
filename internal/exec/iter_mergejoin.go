package exec

import (
	"orthoq/internal/algebra"
	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
)

// Merge join: both inputs arrive sorted ascending on the equality
// keys, the iterator advances the two cursors in lockstep and buffers
// one right-side key group at a time. Memory is O(largest key group)
// instead of O(right input), and inner/semi output preserves the left
// input's order. Selected cost-based when both inputs already deliver
// a covering order (ordered index scans, ordered Apply outputs), or
// forced via Strategy.Join with explicit sorts as the safety net.

// mergeKeySeq picks the key comparison sequence for a merge join whose
// inputs deliver the orders dl and dr. Equality conjuncts carry no
// inherent order, so the sequence is aligned with the left input's
// delivered order when a permutation of the key pairs matches it
// (making the left side sort-free); otherwise the declared conjunct
// order is kept. lSorted/rSorted report whether each input's delivered
// order covers the chosen sequence ascending — sides not covered need
// an explicit sort.
func mergeKeySeq(lKeys, rKeys []algebra.ColID, dl, dr []algebra.Ordering) (lSeq, rSeq []algebra.ColID, lSorted, rSorted bool) {
	n := len(lKeys)
	if len(dl) >= n {
		used := make([]bool, n)
		ls := make([]algebra.ColID, 0, n)
		rs := make([]algebra.ColID, 0, n)
		ok := true
		for i := 0; i < n && ok; i++ {
			if dl[i].Desc {
				ok = false
				break
			}
			found := -1
			for k := 0; k < n; k++ {
				if !used[k] && lKeys[k] == dl[i].Col {
					found = k
					break
				}
			}
			if found < 0 {
				ok = false
				break
			}
			used[found] = true
			ls = append(ls, lKeys[found])
			rs = append(rs, rKeys[found])
		}
		if ok {
			return ls, rs, true, coversAsc(dr, rs)
		}
	}
	return lKeys, rKeys, coversAsc(dl, lKeys), coversAsc(dr, rKeys)
}

// coversAsc reports whether rows ordered by delivered are ordered
// ascending on cols: algebra.OrderCovers(delivered, ascOrder(cols)),
// without building the ordering (the cost model asks per join costed).
func coversAsc(delivered []algebra.Ordering, cols []algebra.ColID) bool {
	if len(cols) > len(delivered) {
		return false
	}
	for i, c := range cols {
		if delivered[i].Col != c || delivered[i].Desc {
			return false
		}
	}
	return true
}

// maybeMergeJoin builds the merge-join iterator when Strategy.JoinAlg
// picks merge for j. Auto selection only does so with both inputs
// pre-sorted; a forced merge accepts any equi-join and sorts whichever
// inputs need it.
func maybeMergeJoin(ctx *Context, j *algebra.Join, left, right *node,
	lKeys, rKeys []algebra.ColID, residual []algebra.Scalar) (*node, bool) {
	dl, dr := algebra.DeliveredOrder(j.Left), algebra.DeliveredOrder(j.Right)
	if ctx.JoinAlg(lKeys, rKeys, dl, dr) != AlgMerge {
		return nil, false
	}
	lSeq, rSeq, lSorted, rSorted := mergeKeySeq(lKeys, rKeys, dl, dr)
	if !lSorted {
		left = sortWrapNode(ctx, left, lSeq, j)
	}
	if !rSorted {
		right = sortWrapNode(ctx, right, rSeq, j)
	}
	lOrds := make([]int, len(lSeq))
	rOrds := make([]int, len(rSeq))
	for i := range lSeq {
		lOrds[i] = left.ords[lSeq[i]]
		rOrds[i] = right.ords[rSeq[i]]
	}
	it := &mergeJoinIter{ctx: ctx, kind: j.Kind, left: left, right: right,
		lOrds: lOrds, rOrds: rOrds, residual: algebra.ConjoinAll(residual...),
		st: ctx.traceStats(j)}
	return newNode(it, joinOutCols(j.Kind, left, right)), true
}

// mergeJoinIter streams two key-sorted inputs. The left side drives;
// the right side is consumed through a one-group lookahead buffer
// (all right rows sharing the current key). Supports inner, left
// outer, semi and antisemi joins with SQL equality semantics: NULL
// keys never match.
type mergeJoinIter struct {
	ctx          *Context
	kind         algebra.JoinKind
	left, right  *node
	lOrds, rOrds []int
	residual     algebra.Scalar
	st           *OpStats

	cenv   combinedEnv
	rWidth int

	// right-side cursor: rRow is the one-row lookahead past the current
	// group; group holds the buffered rows of the current key group.
	rRow    types.Row
	rHave   bool
	rDone   bool
	group   []types.Row
	charged int64

	// left-side probe state (mirrors hashJoinIter).
	lrow    types.Row
	haveL   bool
	matched bool
	midx    int
	matches []types.Row

	arena rowArena // backs joined output rows

	prepped   bool
	residComp eval.CompiledPred
	lb, rb    Batch
	lbPos     int
	rbPos     int
	outBuf    []types.Row
}

func (m *mergeJoinIter) Open() error {
	if err := m.left.it.Open(); err != nil {
		return err
	}
	if err := m.right.it.Open(); err != nil {
		m.left.it.Close()
		return err
	}
	m.rWidth = len(m.right.cols)
	m.cenv = combinedEnv{ctx: m.ctx, lords: m.left.ords, rords: m.right.ords}
	m.rRow, m.rHave, m.rDone = nil, false, false
	m.dropGroup()
	m.haveL = false
	m.lb.setEmpty()
	m.rb.setEmpty()
	m.lbPos, m.rbPos = 0, 0
	if !m.prepped {
		m.prepped = true
		if comp := m.ctx.compiler(m.left.ords); comp != nil {
			comp.Ords2 = m.right.ords
			if m.residual != nil && !algebra.IsTrueConst(m.residual) {
				m.residComp = comp.CompilePred(m.residual)
			}
		}
	}
	return nil
}

func (m *mergeJoinIter) Next() (types.Row, bool, error) {
	return m.nextRow(false)
}

// NextBatch assembles up to BatchSize joined rows through the merge
// state machine.
func (m *mergeJoinIter) NextBatch(b *Batch) error {
	if m.outBuf == nil {
		m.outBuf = make([]types.Row, 0, BatchSize)
	}
	out := m.outBuf[:0]
	for len(out) < BatchSize {
		row, ok, err := m.nextRow(true)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		out = append(out, row)
	}
	m.outBuf = out
	b.Rows, b.Sel = out, nil
	return nil
}

func (m *mergeJoinIter) leftNext(batched bool) (types.Row, bool, error) {
	if !batched {
		lrow, ok, err := m.left.it.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if err := m.ctx.charge(); err != nil {
			return nil, false, err
		}
		return lrow, true, nil
	}
	for m.lbPos >= m.lb.Len() {
		if err := nextBatch(m.left.it, &m.lb); err != nil {
			return nil, false, err
		}
		m.lbPos = 0
		if m.lb.Len() == 0 {
			return nil, false, nil
		}
		if err := m.ctx.chargeN(m.lb.Len()); err != nil {
			return nil, false, err
		}
	}
	row := m.lb.Row(m.lbPos)
	m.lbPos++
	return row, true, nil
}

func (m *mergeJoinIter) rightNext(batched bool) (types.Row, bool, error) {
	if !batched {
		return m.right.it.Next()
	}
	for m.rbPos >= m.rb.Len() {
		if err := nextBatch(m.right.it, &m.rb); err != nil {
			return nil, false, err
		}
		m.rbPos = 0
		if m.rb.Len() == 0 {
			return nil, false, nil
		}
	}
	// Row headers are copied out of the batch into the group buffer, so
	// the producer reusing its batch buffers is safe (same contract as
	// the hash-join build).
	row := m.rb.Row(m.rbPos)
	m.rbPos++
	return row, true, nil
}

// dropGroup releases the current right group and its accounted memory.
func (m *mergeJoinIter) dropGroup() {
	m.group = m.group[:0]
	if m.charged > 0 {
		m.ctx.releaseMem(m.charged)
		m.charged = 0
	}
}

// loadGroup buffers the next right key group, skipping NULL-key rows,
// leaving the first row of the following group in the lookahead slot.
// On return either group is non-empty or rDone is set.
func (m *mergeJoinIter) loadGroup(batched bool) error {
	m.dropGroup()
	governed := m.ctx.MemBudget > 0 || m.ctx.Faults != nil
	add := func(row types.Row) error {
		if governed {
			n := rowBytes(row)
			over, err := m.ctx.grantMem(m.st, "Join", n)
			if err != nil {
				return err
			}
			m.charged += n
			_ = over // soft overage: a key group cannot be split
		}
		m.group = append(m.group, row)
		return nil
	}
	for {
		if !m.rHave {
			row, ok, err := m.rightNext(batched)
			if err != nil {
				return err
			}
			if !ok {
				m.rDone = true
				return nil
			}
			m.rRow, m.rHave = row, true
		}
		if rowHasNullAt(m.rRow, m.rOrds) {
			m.rHave = false // NULL keys never join
			continue
		}
		break
	}
	first := m.rRow
	m.rHave = false
	if err := add(first); err != nil {
		return err
	}
	for {
		row, ok, err := m.rightNext(batched)
		if err != nil {
			return err
		}
		if !ok {
			m.rDone = true
			return nil
		}
		if rowHasNullAt(row, m.rOrds) {
			continue
		}
		if types.EqualRows(row, m.rOrds, first, m.rOrds) {
			if err := add(row); err != nil {
				return err
			}
			continue
		}
		m.rRow, m.rHave = row, true
		return nil
	}
}

// cmpGroupKey compares the current right group's key against the left
// row's key under the ascending merge order.
func (m *mergeJoinIter) cmpGroupKey(lrow types.Row) int {
	grow := m.group[0]
	for i, lo := range m.lOrds {
		if c := types.Compare(grow[m.rOrds[i]], lrow[lo]); c != 0 {
			return c
		}
	}
	return 0
}

// advanceTo positions the right cursor at the left row's key: groups
// with smaller keys are discarded (left is ascending, they can never
// match again), and matches is set when the keys align.
func (m *mergeJoinIter) advanceTo(batched bool, lrow types.Row) error {
	for {
		if len(m.group) == 0 {
			if m.rDone {
				m.matches = nil
				return nil
			}
			if err := m.loadGroup(batched); err != nil {
				return err
			}
			continue
		}
		c := m.cmpGroupKey(lrow)
		if c < 0 {
			if m.rDone {
				m.dropGroup()
				m.matches = nil
				return nil
			}
			if err := m.loadGroup(batched); err != nil {
				return err
			}
			continue
		}
		if c == 0 {
			m.matches = m.group
		} else {
			m.matches = nil
		}
		return nil
	}
}

func (m *mergeJoinIter) residualPass(batched bool, lrow, rrow types.Row) (bool, error) {
	if m.residComp != nil && batched {
		fr := eval.Frame{Row: lrow, Row2: rrow, Outer: m.ctx.params}
		v, err := m.residComp(&fr)
		if err != nil {
			return false, err
		}
		return v == types.TriTrue, nil
	}
	if m.residual != nil && !algebra.IsTrueConst(m.residual) {
		m.cenv.lrow, m.cenv.rrow = lrow, rrow
		v, err := m.ctx.ev.EvalBool(m.residual, &m.cenv)
		if err != nil {
			return false, err
		}
		return v == types.TriTrue, nil
	}
	return true, nil
}

// nextRow is the merge state machine; emission semantics mirror
// hashJoinIter.nextRow (keys are already known equal, so only the
// residual is checked per pair).
func (m *mergeJoinIter) nextRow(batched bool) (types.Row, bool, error) {
	for {
		if !m.haveL {
			lrow, ok, err := m.leftNext(batched)
			if err != nil || !ok {
				return nil, false, err
			}
			m.lrow = lrow
			m.haveL = true
			m.matched = false
			m.midx = 0
			if rowHasNullAt(lrow, m.lOrds) {
				m.matches = nil
			} else if err := m.advanceTo(batched, lrow); err != nil {
				return nil, false, err
			}
		}
		for m.midx < len(m.matches) {
			rrow := m.matches[m.midx]
			m.midx++
			pass, err := m.residualPass(batched, m.lrow, rrow)
			if err != nil {
				return nil, false, err
			}
			if !pass {
				continue
			}
			m.matched = true
			switch m.kind {
			case algebra.SemiJoin:
				m.haveL = false
				return m.lrow, true, nil
			case algebra.AntiSemiJoin:
				m.haveL = false
				// fall to next left row via loop (no emission)
			default:
				return m.arena.concat(m.lrow, rrow), true, nil
			}
			if m.kind == algebra.AntiSemiJoin {
				break
			}
		}
		// exhausted matches for this left row
		wasMatched := m.matched
		if m.haveL {
			m.haveL = false
			switch m.kind {
			case algebra.AntiSemiJoin:
				if !wasMatched {
					return m.lrow, true, nil
				}
			case algebra.LeftOuterJoin:
				if !wasMatched {
					return m.arena.padNulls(m.lrow, m.rWidth), true, nil
				}
			}
		}
	}
}

func (m *mergeJoinIter) Close() error {
	m.dropGroup()
	m.matches = nil
	err := m.right.it.Close()
	if lerr := m.left.it.Close(); err == nil {
		err = lerr
	}
	return err
}
