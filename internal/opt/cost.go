// Package opt is the cost-based optimizer (paper §4): it explores the
// plan space spanned by the paper's transformation rules — join
// reordering, GroupBy reordering around join variants, LocalGroupBy
// splitting, SegmentApply, and reintroduction of correlated execution
// (index-lookup joins) — with best-first search over a cost model fed
// by internal/stats, in the architecture of the Volcano/Cascades
// optimizer generators.
package opt

import (
	"math"

	"orthoq/internal/algebra"
	"orthoq/internal/exec"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
	"orthoq/internal/stats"
)

// Cost-model unit weights. Only ratios matter: they must rank plans
// the way the execution engine's wall-clock does.
const (
	cScanRow   = 1.0  // producing a row from a scan
	cHashRow   = 1.5  // hashing a row (grouping)
	cHashBuild = 3.0  // inserting a row into a join hash table
	cHashProbe = 1.2  // probing a join hash table
	cPredEval  = 0.5  // evaluating a predicate on a row
	cSeek      = 25.0 // one index lookup (binary search + allocations)
	cOpenIter  = 60.0 // re-opening an iterator tree (Apply inner per outer row)
	cSortRow   = 2.0  // per-row sort weight (times log n)
	// Order-exploiting operators: an ordered index scan gathers rows
	// through the permutation (costlier than a sequential scan but far
	// cheaper than sorting), merge join advances two sorted cursors,
	// streaming aggregation folds into one resident group.
	cOrderedRow = 1.15 // producing a row via an index permutation
	cMergeRow   = 0.8  // advancing a merge-join cursor over a row
	cStreamRow  = 0.6  // folding a row into the current stream-agg group
)

// estimate summarizes one subtree during costing.
type estimate struct {
	rows float64
	cost float64
}

// coster computes the cost and cardinality estimates of table entries.
// An entry's estimate is a function of its operator and of what the
// entries of its inputs hold — their estimates, operator kinds, output
// columns, outer references and delivered orders — so costing walks
// entries, never a tree, and each estimate is kept on its entry.
type coster struct {
	md  *algebra.Metadata
	cat *catalog.Catalog
	st  *stats.Collection
	// strategy is the physical strategy plans are priced under: costing
	// asks it the selector questions the executor's compile step asks,
	// so a plan is priced as the algorithms its run will pick.
	strategy exec.Strategy
	// bound marks columns available as correlation parameters in the
	// current (Apply inner / segment) scope.
	bound algebra.ColSet
	// segRows estimates rows per segment for SegmentRef leaves.
	segRows []float64
	// cols caches colStats per column ID (index id-1), resolved on first
	// use; rules mint columns during the search, so it grows on demand.
	cols []colStat
	// more holds, for the few entries costed in more than one scope, the
	// estimates beyond the first, which the entry holds itself.
	more map[*subtree][]scopedEstimate
	// conj is conjuncts' buffer.
	conj []algebra.Scalar
	// costed counts estimates derived (cache misses), for Result.Costed.
	costed int
}

// colStat is a column's resolved base-table statistics: cs is nil when
// the column does not trace to a stored column with statistics.
type colStat struct {
	resolved bool
	cs       *stats.ColumnStats
	rows     int64
}

// colStats fetches base-table column statistics for a column ID, if it
// traces to a stored column.
func (c *coster) colStats(id algebra.ColID) (*stats.ColumnStats, int64, bool) {
	if int(id) > len(c.cols) {
		c.cols = append(c.cols, make([]colStat, int(id)-len(c.cols))...)
	}
	e := &c.cols[id-1]
	if !e.resolved {
		e.resolved = true
		if meta := c.md.Column(id); meta.Table != "" && c.st != nil {
			if ts := c.st.Table(meta.Table); ts != nil && meta.Ord < len(ts.Columns) {
				e.cs, e.rows = &ts.Columns[meta.Ord], ts.RowCount
			}
		}
	}
	return e.cs, e.rows, e.cs != nil
}

func (c *coster) distinct(id algebra.ColID, defRows float64) float64 {
	if cs, _, ok := c.colStats(id); ok && cs.Distinct > 0 {
		return float64(cs.Distinct)
	}
	return math.Max(1, defRows/10)
}

// cost returns the estimate of s in the current scope (bound, segRows),
// derived once per scope. Deriving an estimate consults the scope in
// two places only: a Get's seek detection asks whether the comparand
// columns of its filter are bound by an enclosing Apply, and a
// SegmentRef reads the innermost enclosing segment size. The columns a
// subtree can ask about that it does not bind itself are its outer
// references, so the scope reduces to (bound ∩ OuterRefs, innermost
// segment size if the subtree reads one). A subtree with no outer
// references and no foreign SegmentRef — nearly all of them — has one
// scope and is costed once.
func (c *coster) cost(s *subtree) estimate {
	var bound algebra.ColSet
	if !c.bound.Empty() {
		bound = c.bound.Intersection(s.outerRefs())
	}
	seg := 0.0
	if s.segRefs {
		seg = c.segmentRows()
	}
	if s.hasEst && s.est.seg == seg && s.est.bound.Equals(bound) {
		return s.est.est
	}
	if s.hasEst {
		for _, e := range c.more[s] {
			if e.seg == seg && e.bound.Equals(bound) {
				return e.est
			}
		}
	}
	e := scopedEstimate{bound: bound, seg: seg, est: c.derive(s)}
	if s.hasEst {
		if c.more == nil {
			c.more = map[*subtree][]scopedEstimate{}
		}
		c.more[s] = append(c.more[s], e)
	} else {
		s.est, s.hasEst = e, true
	}
	c.costed++
	return e.est
}

// conjuncts splits pred into a buffer the next call reuses: the result
// is for iterating over at once, with no costing call in the loop that
// splits another predicate.
func (c *coster) conjuncts(pred algebra.Scalar) []algebra.Scalar {
	c.conj = algebra.AppendConjuncts(c.conj[:0], pred)
	return c.conj
}

// segmentRows is the size of the innermost enclosing segment.
func (c *coster) segmentRows() float64 {
	if len(c.segRows) > 0 {
		return c.segRows[len(c.segRows)-1]
	}
	return 1
}

// derive computes s's estimate from its operator and its inputs'
// entries.
func (c *coster) derive(s *subtree) estimate {
	switch t := s.op.(type) {
	case *algebra.Get:
		return c.costGet(t, nil)

	case *algebra.Select:
		if g, ok := s.kids[0].op.(*algebra.Get); ok {
			return c.costGet(g, t.Filter)
		}
		in := c.cost(s.kids[0])
		sel := c.selectivity(t.Filter, in.rows)
		return estimate{rows: in.rows * sel, cost: in.cost + in.rows*cPredEval}

	case *algebra.Project:
		in := c.cost(s.kids[0])
		return estimate{rows: in.rows, cost: in.cost + in.rows*cPredEval*float64(1+len(t.Items))}

	case *algebra.Join:
		return c.costJoin(t, s)

	case *algebra.Apply:
		return c.costApply(t, s)

	case *algebra.GroupBy:
		in := c.cost(s.kids[0])
		groups := c.groupCount(t, in.rows)
		perRow := cHashRow
		if c.strategy.AggAlg(t, s.DeliveredOrder(0)) == exec.AlgStream {
			// Grouped input streams: no hash table, one resident group.
			perRow = cStreamRow
		}
		return estimate{rows: groups, cost: in.cost + in.rows*perRow*float64(1+len(t.Aggs))}

	case *algebra.SegmentApply:
		return c.costSegmentApply(t, s)

	case *algebra.SegmentRef:
		rows := c.segmentRows()
		return estimate{rows: rows, cost: rows * cScanRow}

	case *algebra.Max1Row:
		in := c.cost(s.kids[0])
		return estimate{rows: math.Min(in.rows, 1), cost: in.cost}

	case *algebra.UnionAll:
		l, rr := c.cost(s.kids[0]), c.cost(s.kids[1])
		return estimate{rows: l.rows + rr.rows, cost: l.cost + rr.cost}

	case *algebra.Difference:
		l, rr := c.cost(s.kids[0]), c.cost(s.kids[1])
		return estimate{rows: math.Max(0, l.rows-rr.rows/2), cost: l.cost + rr.cost + (l.rows+rr.rows)*cHashRow}

	case *algebra.Values:
		return estimate{rows: float64(len(t.Rows)), cost: float64(len(t.Rows))}

	case *algebra.Sort:
		in := c.cost(s.kids[0])
		n := math.Max(in.rows, 2)
		return estimate{rows: in.rows, cost: in.cost + n*math.Log2(n)*cSortRow}

	case *algebra.Top:
		in := c.cost(s.kids[0])
		return estimate{rows: math.Min(in.rows, float64(t.N)), cost: in.cost}

	case *algebra.RowNumber:
		in := c.cost(s.kids[0])
		return estimate{rows: in.rows, cost: in.cost + in.rows*cPredEval}
	}
	return estimate{rows: 1000, cost: 1e12}
}

// costGet estimates a (filtered) base-table access, recognizing index
// seeks on equality conjuncts whose comparands are constants or bound
// parameters — matching the execution engine's compileGet.
func (c *coster) costGet(g *algebra.Get, filter algebra.Scalar) estimate {
	var rows float64 = 1000
	if ts := c.st.Table(g.Table); ts != nil {
		rows = float64(ts.RowCount)
	}
	if c.strategy.OrderedScan(g) {
		// Ordered delivery precludes the seek path (the scan walks the
		// whole index permutation); the filter stays residual.
		sel := c.selectivity(filter, rows)
		cost := rows * cOrderedRow
		if filter != nil {
			cost += rows * cPredEval
		}
		return estimate{rows: math.Max(rows*sel, 0), cost: cost}
	}
	if filter == nil {
		return estimate{rows: rows, cost: rows * cScanRow}
	}
	selfCols := algebra.NewColSet(g.Cols...)
	seekSel := 1.0
	seekable := false
	tbl, _ := c.cat.Table(g.Table)
	for _, conj := range c.conjuncts(filter) {
		cmp, ok := conj.(*algebra.Cmp)
		if !ok || cmp.Op != algebra.CmpEq {
			continue
		}
		col, okc := cmp.L.(*algebra.ColRef)
		other := cmp.R
		if !okc || !selfCols.Contains(col.Col) {
			if rc, okr := cmp.R.(*algebra.ColRef); okr && selfCols.Contains(rc.Col) {
				col, other = rc, cmp.L
				okc = true
			} else {
				okc = false
			}
		}
		if !okc {
			continue
		}
		// The comparand must be evaluable at open: constants or bound
		// (correlation) parameters only.
		oc := algebra.ScalarCols(other)
		if oc.Intersects(selfCols) || !oc.SubsetOf(c.bound) {
			continue
		}
		// Is there an index whose leading column is this one?
		if tbl != nil {
			ord := c.md.Column(col.Col).Ord
			if idx := tbl.IndexOn([]int{ord}); idx != nil {
				seekable = true
				seekSel *= 1 / c.distinct(col.Col, rows)
			}
		}
	}
	sel := c.selectivity(filter, rows)
	outRows := math.Max(rows*sel, 0)
	if seekable {
		matched := math.Max(rows*seekSel, 1)
		return estimate{rows: outRows, cost: cSeek + matched*cScanRow}
	}
	return estimate{rows: outRows, cost: rows * (cScanRow + cPredEval)}
}

func (c *coster) costJoin(j *algebra.Join, s *subtree) estimate {
	l := c.cost(s.kids[0])
	r := c.cost(s.kids[1])
	lk, rk, _ := exec.SplitJoinKeys(j.On, s.OutputCols(0), s.OutputCols(1))

	var outRows float64
	sel := c.selectivity(j.On, l.rows*r.rows)
	if len(lk) > 0 {
		// equi-join: |L⋈R| ≈ L*R / max(d(lk), d(rk))
		d := 1.0
		for i := range lk {
			d = math.Max(d, math.Max(c.distinct(lk[i], l.rows), c.distinct(rk[i], r.rows)))
		}
		outRows = l.rows * r.rows / d
	} else {
		outRows = l.rows * r.rows * sel
	}

	var cost float64
	switch c.strategy.JoinAlg(lk, rk, s.DeliveredOrder(0), s.DeliveredOrder(1)) {
	case exec.AlgMerge:
		// Both inputs pre-sorted on the keys: the engine merges two
		// cursors — no build table, no hashing.
		cost = l.cost + r.cost + (l.rows+r.rows)*cMergeRow
	case exec.AlgHash:
		// The engine builds the hash table on the right input and
		// probes with the left; building is costlier than probing, so
		// commuting to put the smaller input on the right pays off.
		cost = l.cost + r.cost + r.rows*cHashBuild + l.rows*cHashProbe
	default:
		cost = l.cost + r.cost + l.rows*r.rows*cPredEval
	}
	switch j.Kind {
	case algebra.SemiJoin:
		outRows = l.rows * math.Min(1, outRows/math.Max(l.rows, 1))
	case algebra.AntiSemiJoin:
		match := math.Min(1, outRows/math.Max(l.rows, 1))
		outRows = l.rows * (1 - match)
	case algebra.LeftOuterJoin:
		outRows = math.Max(outRows, l.rows)
	}
	return estimate{rows: math.Max(outRows, 0), cost: cost}
}

// costApply charges the inner cost once per *distinct* correlation
// binding, with the outer columns bound (enabling seek costing
// inside): the binding-batch Apply memoizes inner results per binding
// signature, so repeated bindings replay from the cache. The hash/key
// work per outer row is charged separately. Without usable column
// statistics the distinct count falls back to the outer cardinality —
// the legacy once-per-row charge.
func (c *coster) costApply(a *algebra.Apply, s *subtree) estimate {
	l := c.cost(s.kids[0])
	saved := c.bound
	c.bound = c.bound.Union(s.OutputCols(0))
	r := c.cost(s.kids[1])
	c.bound = saved

	sig := algebra.BindingSignature(s, a)
	execs := l.rows
	if sig.Empty() {
		// Uncorrelated inner: spooled, executed once.
		execs = 1
	} else {
		// Bindings are at least as distinct as their most distinct
		// column; trust only real statistics (the rows/10 fallback would
		// claim a dedup win on every correlated plan).
		d := 0.0
		sig.ForEach(func(col algebra.ColID) {
			if cs, _, ok := c.colStats(col); ok && cs.Distinct > 0 {
				d = math.Max(d, float64(cs.Distinct))
			}
		})
		if d > 0 {
			execs = math.Min(l.rows, d)
		}
	}
	perRow := r.cost + cOpenIter
	cost := l.cost + execs*perRow + l.rows*cHashRow
	var outRows float64
	switch a.Kind {
	case algebra.SemiJoin:
		outRows = l.rows * 0.5
	case algebra.AntiSemiJoin:
		outRows = l.rows * 0.5
	case algebra.LeftOuterJoin:
		outRows = l.rows * math.Max(1, r.rows)
	default:
		outRows = l.rows * math.Max(r.rows, 0.001)
		if a.On != nil {
			outRows *= c.selectivity(a.On, outRows)
		}
	}
	return estimate{rows: math.Max(outRows, 0), cost: cost}
}

func (c *coster) costSegmentApply(sa *algebra.SegmentApply, s *subtree) estimate {
	in := c.cost(s.kids[0])
	segments := c.segments(sa, in.rows)
	c.segRows = append(c.segRows, in.rows/segments)
	inner := c.cost(s.kids[1])
	c.segRows = c.segRows[:len(c.segRows)-1]
	return estimate{
		rows: inner.rows * segments,
		cost: in.cost + in.rows*cHashRow + segments*(inner.cost+cOpenIter),
	}
}

// segments estimates how many segments sa cuts an input of inRows into.
func (c *coster) segments(sa *algebra.SegmentApply, inRows float64) float64 {
	segments := 1.0
	sa.SegmentCols.ForEach(func(col algebra.ColID) {
		segments = math.Max(segments, c.distinct(col, inRows))
	})
	return math.Min(segments, math.Max(inRows, 1))
}

func (c *coster) groupCount(gb *algebra.GroupBy, inRows float64) float64 {
	if gb.Kind == algebra.ScalarGroupBy {
		return 1
	}
	groups := 1.0
	gb.GroupCols.ForEach(func(col algebra.ColID) {
		groups = math.Max(groups, c.distinct(col, inRows))
	})
	return math.Min(groups, math.Max(inRows, 1))
}

// selectivity estimates the fraction of rows passing a predicate.
// Lower/upper bound pairs on the same column are combined into a range
// estimate (LT(hi) − LT(lo)) instead of multiplying under the
// independence assumption, which would wildly overestimate ranges.
func (c *coster) selectivity(pred algebra.Scalar, rows float64) float64 {
	if pred == nil || algebra.IsTrueConst(pred) {
		return 1
	}
	// Range bounds per column, in order of first mention (few: searched
	// linearly), so the product below is taken in one fixed order.
	type bounds struct {
		col    algebra.ColID
		lo, hi types.Datum
		hasLo  bool
		hasHi  bool
	}
	var ranges []bounds
	rangeOf := func(col algebra.ColID) *bounds {
		for i := range ranges {
			if ranges[i].col == col {
				return &ranges[i]
			}
		}
		ranges = append(ranges, bounds{col: col})
		return &ranges[len(ranges)-1]
	}
	sel := 1.0
	for _, conj := range c.conjuncts(pred) {
		if cmp, ok := conj.(*algebra.Cmp); ok {
			if col, cst, op := c.colConstCmp(cmp); col != 0 {
				if _, _, hasStats := c.colStats(col); hasStats {
					switch op {
					case algebra.CmpGt, algebra.CmpGe:
						b := rangeOf(col)
						b.lo, b.hasLo = cst, true
						continue
					case algebra.CmpLt, algebra.CmpLe:
						b := rangeOf(col)
						b.hi, b.hasHi = cst, true
						continue
					}
				}
			}
		}
		sel *= c.conjSelectivity(conj, rows)
	}
	for _, b := range ranges {
		cs, total, _ := c.colStats(b.col)
		lo, hi := 0.0, 1.0
		if b.hasLo {
			lo = cs.SelectivityLT(b.lo, total)
		}
		if b.hasHi {
			hi = cs.SelectivityLT(b.hi, total)
		}
		s := hi - lo
		if s < 1/math.Max(float64(total), 1) {
			s = 1 / math.Max(float64(total), 1)
		}
		sel *= s
	}
	return sel
}

func (c *coster) conjSelectivity(conj algebra.Scalar, rows float64) float64 {
	switch t := conj.(type) {
	case *algebra.Cmp:
		col, cst, op := c.colConstCmp(t)
		if col == 0 {
			if t.Op == algebra.CmpEq {
				// Column-vs-expression equality (e.g. a correlation
				// parameter): estimate 1/distinct over the widest
				// referenced column — the classic equijoin selectivity.
				d := 1.0
				algebra.ScalarCols(conj).ForEach(func(cc algebra.ColID) {
					if cs, _, ok := c.colStats(cc); ok && float64(cs.Distinct) > d {
						d = float64(cs.Distinct)
					}
				})
				if d > 1 {
					return 1 / d
				}
				return 0.1
			}
			return 0.3
		}
		cs, total, ok := c.colStats(col)
		if !ok {
			if op == algebra.CmpEq {
				return 0.1
			}
			return 0.3
		}
		switch op {
		case algebra.CmpEq:
			return cs.SelectivityEq(total)
		case algebra.CmpLt, algebra.CmpLe:
			return cs.SelectivityLT(cst, total)
		case algebra.CmpGt, algebra.CmpGe:
			return 1 - cs.SelectivityLT(cst, total)
		case algebra.CmpNe:
			return 1 - cs.SelectivityEq(total)
		}
		return 0.3
	case *algebra.Like:
		return 0.05
	case *algebra.InList:
		return math.Min(1, 0.05*float64(len(t.List)))
	case *algebra.Or:
		s := 0.0
		for _, a := range t.Args {
			s += c.conjSelectivity(a, rows)
		}
		return math.Min(1, s)
	case *algebra.Not:
		return 1 - c.conjSelectivity(t.Arg, rows)
	case *algebra.IsNull:
		if t.Negate {
			return 0.95
		}
		return 0.05
	}
	return 0.3
}

// colConstCmp matches "col op const" (either orientation, op adjusted).
// A Param slot counts as a constant via its sniffed value: the plan
// cache keys range-comparison plans by selectivity bucket, so costing
// with the sniffed literal is sound for every value in the bucket.
func (c *coster) colConstCmp(t *algebra.Cmp) (algebra.ColID, types.Datum, algebra.CmpOp) {
	if l, ok := t.L.(*algebra.ColRef); ok {
		if v, ok := constVal(t.R); ok {
			return l.Col, v, t.Op
		}
	}
	if r, ok := t.R.(*algebra.ColRef); ok {
		if v, ok := constVal(t.L); ok {
			return r.Col, v, t.Op.Commute()
		}
	}
	return 0, types.NullUnknown, t.Op
}

// constVal extracts a comparable value from a literal or a sniffed
// parameter.
func constVal(s algebra.Scalar) (types.Datum, bool) {
	switch t := s.(type) {
	case *algebra.Const:
		return t.Val, true
	case *algebra.Param:
		return t.Val, true
	}
	return types.NullUnknown, false
}
