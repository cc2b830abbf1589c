package exec

import (
	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// Merge join: both inputs arrive sorted ascending on the equality
// keys, the iterator advances the two cursors in lockstep and buffers
// one right-side key group at a time. Memory is O(largest key group)
// instead of O(right input), and inner/semi output preserves the left
// input's order. Selected exactly when both inputs already deliver a
// covering order (ordered index scans, Sort nodes; JoinAlg).

// mergeKeySeq picks the key comparison sequence for a merge join whose
// inputs deliver the orders dl and dr. Equality conjuncts carry no
// inherent order, so the sequence is aligned with the left input's
// delivered order when a permutation of the key pairs matches it
// (making the left side sort-free); otherwise the declared conjunct
// order is kept. lSorted/rSorted report whether each input's delivered
// order covers the chosen sequence ascending; JoinAlg merges only when
// both do.
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
// ascending on cols: algebra.OrderCovers over cols in ascending order,
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

// maybeMergeJoin builds the merge-join iterator when JoinAlg picks
// merge for j: both inputs arrive sorted on the keys.
func maybeMergeJoin(ctx *Context, j *algebra.Join, left, right *node,
	lKeys, rKeys []algebra.ColID, residual []algebra.Scalar) (*node, bool) {
	dl, dr := algebra.DeliveredOrder(j.Left), algebra.DeliveredOrder(j.Right)
	if JoinAlg(lKeys, rKeys, dl, dr) != AlgMerge {
		return nil, false
	}
	lSeq, rSeq, _, _ := mergeKeySeq(lKeys, rKeys, dl, dr)
	lOrds := make([]int, len(lSeq))
	rOrds := make([]int, len(rSeq))
	for i := range lSeq {
		lOrds[i] = left.ords[lSeq[i]]
		rOrds[i] = right.ords[rSeq[i]]
	}
	it := &mergeJoinIter{ctx: ctx, left: left, right: right, lOrds: lOrds, rOrds: rOrds,
		em: newJoinEmit(ctx, j.Kind, algebra.ConjoinAll(residual...), left, right),
		lr: rowReader{it: left.it, charge: ctx}, rr: rowReader{it: right.it},
		st: ctx.traceStats(j)}
	it.next = it.probe
	return newNode(it, joinOutCols(j.Kind, left, right)), true
}

// mergeJoinIter streams two key-sorted inputs. The left side drives;
// the right side is consumed through a one-group lookahead buffer
// (all right rows sharing the current key). Supports inner, left
// outer, semi and antisemi joins with SQL equality semantics: NULL
// keys never match.
type mergeJoinIter struct {
	ctx          *Context
	left, right  *node
	lOrds, rOrds []int
	st           *OpStats

	em     joinEmit
	lr, rr rowReader
	next   probeFn

	// right-side cursor: rRow is the one-row lookahead past the current
	// group; group holds the buffered rows of the current key group (row
	// headers copied out of the right input's batches).
	rRow    types.Row
	rHave   bool
	rDone   bool
	group   []types.Row
	charged int64
}

func (m *mergeJoinIter) Open() error {
	if err := m.left.it.Open(); err != nil {
		return err
	}
	if err := m.right.it.Open(); err != nil {
		m.left.it.Close()
		return err
	}
	m.rRow, m.rHave, m.rDone = nil, false, false
	m.dropGroup()
	m.em.reset()
	m.lr.reset()
	m.rr.reset()
	return nil
}

// probe yields the next left row with the right key group it aligns
// with (keys are already known equal, so only the residual is checked
// per pair).
func (m *mergeJoinIter) probe(limit int) (types.Row, []types.Row, bool, error) {
	lrow, ok, err := m.lr.next(limit)
	if err != nil || !ok {
		return nil, nil, false, err
	}
	if rowHasNullAt(lrow, m.lOrds) {
		return lrow, nil, true, nil
	}
	group, err := m.advanceTo(lrow)
	return lrow, group, true, err
}

func (m *mergeJoinIter) NextBatch(b *Batch) error { return m.em.run(b, m.next) }

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
func (m *mergeJoinIter) loadGroup() error {
	m.dropGroup()
	governed := m.ctx.MemBudget > 0 || m.ctx.Faults != nil
	add := func(row types.Row) error {
		if governed {
			n := types.RowBytes(row)
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
			row, ok, err := m.rr.next(0)
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
		row, ok, err := m.rr.next(0)
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
		if cmpKeys(row, m.rOrds, first, m.rOrds) == 0 {
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
	return cmpKeys(m.group[0], m.rOrds, lrow, m.lOrds)
}

// cmpKeys compares row a's key at aOrds with row b's at bOrds in the
// order both inputs are sorted by (types.Compare), so a NaN key
// joins only a NaN key, as in the hash join.
func cmpKeys(a types.Row, aOrds []int, b types.Row, bOrds []int) int {
	for i, o := range aOrds {
		if c := types.Compare(a[o], b[bOrds[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// advanceTo positions the right cursor at the left row's key and
// returns the aligned group (nil when no right key equals it): groups
// with smaller keys are discarded — left is ascending, they can never
// match again.
func (m *mergeJoinIter) advanceTo(lrow types.Row) ([]types.Row, error) {
	for {
		if len(m.group) > 0 {
			if c := m.cmpGroupKey(lrow); c == 0 {
				return m.group, nil
			} else if c > 0 {
				return nil, nil
			}
		}
		if m.rDone {
			m.dropGroup()
			return nil, nil
		}
		if err := m.loadGroup(); err != nil {
			return nil, err
		}
	}
}

func (m *mergeJoinIter) Close() error {
	m.dropGroup()
	err := m.right.it.Close()
	if lerr := m.left.it.Close(); err == nil {
		err = lerr
	}
	return err
}
