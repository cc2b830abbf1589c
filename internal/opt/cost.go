// Package opt is the cost-based optimizer (paper §4): it explores the
// plan space spanned by the paper's transformation rules — join
// reordering, GroupBy reordering around join variants, LocalGroupBy
// splitting, SegmentApply, and reintroduction of correlated execution
// (index-lookup joins) — exhaustively, in a memo of equivalence groups
// whose cheapest members are found bottom-up under a cost model fed by
// internal/stats, in the architecture of the Volcano/Cascades optimizer
// generators.
package opt

import (
	"math"
	"slices"

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
	// An exchange divides its input's cost over the workers.
	cWorkerOpen = 1000.0 // starting a worker: its tree compiled, a goroutine
	cHandOver   = 0.2    // handing a row over to the consumer
)

// estimate summarizes one subtree during costing.
type estimate struct {
	rows float64
	cost float64
}

// coster prices the memo. An expression's estimate is a function of its
// operator and of what its input groups hold — their winners' estimates,
// their representatives' operator kinds, their contracts — so costing
// walks the memo, never a tree; a group's estimate is its cheapest
// member's, found once per costing scope and kept on the group.
type coster struct {
	md  *algebra.Metadata
	cat *catalog.Catalog
	st  *stats.Collection
	// workers is Optimizer.Parallelism, what an exchange divides by.
	workers int
	// bound marks columns available as correlation parameters in the
	// current (Apply inner / segment) scope.
	bound algebra.ColSet
	// segRows estimates rows per segment for SegmentRef leaves.
	segRows []float64
	// cols caches colStats per column ID (index id-1), resolved on first
	// use; rules mint columns during the search, so it grows on demand.
	cols []colStat
	// aggs holds, by output column, the sums, averages, minima and maxima
	// of stored columns met in GroupBys costed so far: what is known
	// about a column a HAVING-style predicate compares (see aggStats).
	aggs map[algebra.ColID]algebra.AggItem
	// conj is conjuncts' buffer, keys the access selector's.
	conj, keys []algebra.Scalar
	// costed counts estimates derived, for Result.Costed.
	costed int
}

// winner is one way of computing a group in one costing scope that no
// other way beats on both counts: a member, which winner of each of its
// input groups it reads, and the estimate it derives from them; par: an
// exchange is in it, so only some operators may read it (reads).
type winner struct {
	est  estimate
	best *mexpr
	pick [2]int
	par  bool
}

// scopedWinners is a group's winners in one costing scope, cheapest
// first.
type scopedWinners struct {
	bound algebra.ColSet
	seg   float64
	ws    []winner
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
		if meta := c.md.Column(id); meta.Source != "" && c.st != nil {
			if ts := c.st.Table(meta.Source); ts != nil && meta.Ord < len(ts.Columns) {
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

// best returns the winners of g in the current scope (bound, segRows),
// cheapest first: every member is derived from every winner of its
// input groups, and what is dominated — no cheaper and no fewer rows
// than another — is dropped. Members of a group compute the same rows
// but estimate their number differently (a semijoin and the
// distinct-join it can run as, a GroupBy and its local/global split),
// and what reads the group is priced by that number: keeping every
// undominated (cost, rows) pair, not the cheapest member alone, makes
// the plan read off the winners the cheapest in the memo as
// Optimizer.Cost prices it, node by node.
//
// Deriving an estimate consults the scope in two places only: a Get's
// seek detection asks whether the comparand columns of its filter are
// bound by an enclosing Apply, and a SegmentRef reads the innermost
// enclosing segment size. The columns a group can ask about that it
// does not bind itself are its outer references, so the scope reduces
// to (bound ∩ outer references, innermost segment size if the group
// reads one). A group with no outer references and no foreign
// SegmentRef — nearly all of them — has one scope.
func (c *coster) best(g *group) []winner {
	g = g.find()
	var bound algebra.ColSet
	if !c.bound.Empty() {
		bound = c.bound.Intersection(g.outer)
	}
	seg := 0.0
	if g.segRefs {
		seg = c.segmentRows()
	}
	for _, sw := range g.winners {
		if sw.seg == seg && sw.bound.Equals(bound) {
			return sw.ws
		}
	}
	if g.busy {
		// A merge made the group an input of its own member (a Sort over
		// rows already sorted): that member is no way to compute it.
		return nil
	}
	g.busy = true
	var ws []winner
	for _, e := range g.exprs {
		if e.dead {
			continue
		}
		// An absent input counts as one winner with a zero estimate.
		kids, left, right := e.inputs(), []winner{{}}, []winner{{}}
		if len(kids) > 0 {
			left = c.best(kids[0])
		}
		_, exchange := e.op.(*algebra.Exchange)
		for i, l := range left {
			if !c.reads(e, kids, i, l) {
				continue
			}
			c.inner(e, l.est.rows, func() {
				if len(kids) > 1 {
					right = c.best(kids[1])
				}
				for k, r := range right {
					if !r.par { // a second input is never read from workers
						ws = c.offer(ws, winner{c.derive(e, l.est, r.est), e, [2]int{i, k}, exchange || l.par})
					}
				}
			})
		}
	}
	g.busy = false
	g.winners = append(g.winners, scopedWinners{bound, seg, ws})
	return ws
}

// offer enters the way w into ws, kept in order of cost (so, among the
// ways with an exchange and among those without, of falling row count).
// A way without an exchange serves wherever one with an exchange does,
// so it can beat one, but not the reverse.
func (c *coster) offer(ws []winner, w winner) []winner {
	c.costed++
	at := 0
	for at < len(ws) && ws[at].est.cost <= w.est.cost {
		if ws[at].est.rows <= w.est.rows && (w.par || !ws[at].par) {
			return ws // dominated, or a tie the earlier member keeps
		}
		at++
	}
	ws = slices.Insert(ws, at, w)
	// What costs more must count fewer rows to stay.
	return slices.DeleteFunc(ws, func(o winner) bool {
		return o.est.cost > w.est.cost && o.est.rows >= w.est.rows && (o.par || !w.par)
	})
}

// reads reports whether e may read l, winner i of its first input group.
// A way with an exchange in it is read by what consumes the merged
// stream as the serial plan consumes its input: Sort, Project, Select,
// GroupBy. Top, Max1Row, RowNumber, the set operators and a SegmentApply
// depend on their input's order or segments. A Join or an Apply runs on
// the workers or above none: its other side could compare a float sum
// the workers took in morsel order with the same sum taken serially
// (Q15 joins its revenue view to the view's maximum). An exchange reads
// a way with none (it never nests) whose plan StreamDriver drives.
func (c *coster) reads(e *mexpr, kids []*group, i int, l winner) bool {
	switch e.op.(type) {
	case *algebra.Exchange:
		if l.par {
			return false
		}
		_, ok := exec.StreamDriver(c.cat.Table, c.plan(kids[0], i, func(*mexpr, algebra.Rel, estimate) {}))
		return ok
	case *algebra.Sort, *algebra.Project, *algebra.Select, *algebra.GroupBy:
		return true
	}
	return !l.par
}

// cost returns g's estimate in the current scope: its cheapest winner's.
func (c *coster) cost(g *group) estimate {
	if ws := c.best(g); len(ws) > 0 {
		return ws[0].est
	}
	return estimate{rows: 1, cost: math.Inf(1)}
}

// inner runs f in the scope e sets up for its second input, given the
// row estimate of its first: an Apply binds its left input's columns, a
// SegmentApply fixes the segment size.
func (c *coster) inner(e *mexpr, leftRows float64, f func()) {
	switch t := e.op.(type) {
	case *algebra.Apply:
		saved := c.bound
		c.bound = c.bound.Union(e.OutputCols(0))
		f()
		c.bound = saved
	case *algebra.SegmentApply:
		c.segRows = append(c.segRows, leftRows/c.segments(t, leftRows))
		f()
		c.segRows = c.segRows[:len(c.segRows)-1]
	default:
		f()
	}
}

// plan returns the tree of g's winner number w over the plans of the
// input groups' winners it reads, each in the scope it was costed in,
// and reports each expression the tree is made of to visit, with the
// node it became and the estimate it was chosen by. An expression whose
// inputs come back as the ones its operator reads is that operator, so
// the plan of a memo of one tree is the tree.
func (c *coster) plan(g *group, w int, visit func(*mexpr, algebra.Rel, estimate)) algebra.Rel {
	win := c.best(g)[w]
	e := win.best
	kids := e.inputs()
	ins := make([]algebra.Rel, len(kids))
	for i, k := range kids {
		if i == 0 {
			ins[i] = c.plan(k, win.pick[0], visit)
		} else {
			left := c.best(kids[0])[win.pick[0]].est.rows
			c.inner(e, left, func() { ins[i] = c.plan(k, win.pick[1], visit) })
		}
	}
	n := e.op
	if l, r := algebra.InputsOf(n); len(ins) > 0 && ins[0] != l || len(ins) > 1 && ins[1] != r {
		n = e.op.WithInputs(ins)
	}
	visit(e, n, win.est)
	return n
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

// derive computes the estimate of the expression s from its operator
// and the estimates l and r of its inputs (zero where absent).
func (c *coster) derive(s *mexpr, l, r estimate) estimate {
	in := l
	switch t := s.op.(type) {
	case *algebra.Get:
		return c.costGet(t, nil)

	case *algebra.Select:
		if g, ok := s.kids[0].find().exprs[0].op.(*algebra.Get); ok {
			return c.costGet(g, t.Filter)
		}
		sel := c.selectivity(t.Filter, in.rows)
		return estimate{rows: in.rows * sel, cost: in.cost + in.rows*cPredEval}

	case *algebra.Project:
		return estimate{rows: in.rows, cost: in.cost + in.rows*cPredEval*float64(1+len(t.Items))}

	case *algebra.Join:
		return c.costJoin(t, s, l, r)

	case *algebra.Apply:
		return c.costApply(t, s, l, r)

	case *algebra.GroupBy:
		c.noteAggs(t)
		groups := c.groupCount(t, in.rows)
		perRow := cHashRow
		if exec.AggAlg(t, s.DeliveredOrder(0)) == exec.AlgStream {
			// Grouped input streams: no hash table, one resident group.
			perRow = cStreamRow
		}
		return estimate{rows: groups, cost: in.cost + in.rows*perRow*float64(1+len(t.Aggs))}

	case *algebra.SegmentApply:
		segments := c.segments(t, in.rows)
		return estimate{
			rows: r.rows * segments,
			cost: in.cost + in.rows*cHashRow + segments*(r.cost+cOpenIter),
		}

	case *algebra.SegmentRef:
		rows := c.segmentRows()
		return estimate{rows: rows, cost: rows * cScanRow}

	case *algebra.Max1Row:
		return estimate{rows: math.Min(in.rows, 1), cost: in.cost}

	case *algebra.UnionAll:
		return estimate{rows: l.rows + r.rows, cost: l.cost + r.cost}

	case *algebra.Difference:
		return estimate{rows: math.Max(0, l.rows-r.rows/2), cost: l.cost + r.cost + (l.rows+r.rows)*cHashRow}

	case *algebra.Values:
		return estimate{rows: float64(len(t.Rows)), cost: float64(len(t.Rows))}

	case *algebra.Sort:
		n := math.Max(in.rows, 2)
		return estimate{rows: in.rows, cost: in.cost + n*math.Log2(n)*cSortRow}

	case *algebra.Top:
		return estimate{rows: math.Min(in.rows, float64(t.N)), cost: in.cost}

	case *algebra.RowNumber:
		return estimate{rows: in.rows, cost: in.cost + in.rows*cPredEval}

	case *algebra.Exchange:
		w := float64(max(c.workers, 1))
		return estimate{rows: in.rows, cost: in.cost/w + w*cWorkerOpen + in.rows*cHandOver}
	}
	return estimate{rows: 1000, cost: 1e12}
}

// costGet estimates a (filtered) base-table access, pricing the access
// the executor's selector (exec.Access) picks with the scope's bound
// columns: a seek reads the rows matching the bound prefix of its
// index, estimated by the product of the prefix columns' distinct
// counts.
func (c *coster) costGet(g *algebra.Get, filter algebra.Scalar) estimate {
	var rows float64 = 1000
	if ts := c.st.Table(g.Table); ts != nil {
		rows = float64(ts.RowCount)
	}
	if len(g.Order) > 0 {
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
	var a exec.AccessPath
	if tbl, ok := c.cat.Table(g.Table); ok {
		a = exec.Access(tbl, g, c.conjuncts(filter), c.bound, c.keys)
		if a.Seek() {
			c.keys = a.Keys // a scan returns no Keys: keep the scratch
		}
	}
	outRows := math.Max(rows*c.selectivity(filter, rows), 0)
	if a.Seek() {
		seekSel := 1.0
		for _, ord := range a.Index.Cols[:len(a.Keys)] {
			seekSel *= 1 / c.distinct(g.Cols[ord], rows)
		}
		matched := math.Max(rows*seekSel, 1)
		return estimate{rows: outRows, cost: cSeek + matched*cScanRow}
	}
	return estimate{rows: outRows, cost: rows * (cScanRow + cPredEval)}
}

func (c *coster) costJoin(j *algebra.Join, s *mexpr, l, r estimate) estimate {
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
	switch exec.JoinAlg(lk, rk, s.DeliveredOrder(0), s.DeliveredOrder(1)) {
	case exec.AlgMerge:
		// Both inputs sorted on the keys: the engine merges two cursors —
		// no build table, no hashing.
		cost = l.cost + r.cost + (l.rows+r.rows)*cMergeRow
	case exec.AlgHash:
		// The engine builds the hash table on the right input and looks
		// the left input's rows up in it; building is the costlier, so
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
func (c *coster) costApply(a *algebra.Apply, s *mexpr, l, r estimate) estimate {
	perRow := r.cost + cOpenIter
	cost := l.cost + c.applyExecs(a, s, l.rows)*perRow + l.rows*cHashRow
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

// applyExecs is how many times the Apply s runs its inner side over
// outerRows outer rows: once per distinct binding.
func (c *coster) applyExecs(a *algebra.Apply, s *mexpr, outerRows float64) float64 {
	sig := algebra.BindingSignature(s, a)
	if sig.Empty() {
		// Uncorrelated inner: spooled, executed once.
		return 1
	}
	// Bindings are at least as distinct as their most distinct column;
	// trust only real statistics (the rows/10 fallback would claim a
	// dedup win on every correlated plan).
	d := 0.0
	sig.ForEach(func(col algebra.ColID) {
		if cs, _, ok := c.colStats(col); ok && cs.Distinct > 0 {
			d = math.Max(d, float64(cs.Distinct))
		}
	})
	if d > 0 {
		return math.Min(outerRows, d)
	}
	return outerRows
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
		floor := 0.0
		if !ok {
			if cs, total, cst, ok = c.aggStats(col, cst, rows); !ok {
				if op == algebra.CmpEq {
					return 0.1
				}
				return 0.3
			}
			floor = 1 / math.Max(rows, 1) // the scaled threshold is no proof that no group passes
		}
		switch op {
		case algebra.CmpEq:
			return math.Max(floor, cs.SelectivityEq(total))
		case algebra.CmpLt, algebra.CmpLe:
			return math.Max(floor, cs.SelectivityLT(cst, total))
		case algebra.CmpGt, algebra.CmpGe:
			return math.Max(floor, 1-cs.SelectivityLT(cst, total))
		case algebra.CmpNe:
			return math.Max(floor, 1-cs.SelectivityEq(total))
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

// noteAggs records gb's aggregates of stored columns for aggStats.
func (c *coster) noteAggs(gb *algebra.GroupBy) {
	for _, a := range gb.Aggs {
		ref, ok := a.Arg.(*algebra.ColRef)
		if !ok || a.Global || a.Distinct {
			continue
		}
		switch a.Func {
		case algebra.AggSum, algebra.AggAvg, algebra.AggMin, algebra.AggMax:
			if _, _, ok := c.colStats(ref.Col); ok {
				if c.aggs == nil {
					c.aggs = map[algebra.ColID]algebra.AggItem{}
				}
				c.aggs[a.Col] = a
			}
		}
	}
}

// aggStats answers for an aggregate's output column, compared with cst
// in a relation of rows groups, with the statistics of the column it
// aggregates: a group's average, minimum or maximum is taken to be
// distributed as the column's values, and its sum as the group's size —
// the table's rows per group — times a value, so the threshold is
// scaled down by that size. Crude, but it tells a threshold in the tail
// of what a group can reach (TPC-H Q18: sum(l_quantity) > 300 over four
// quantities of at most 50) from an even guess, which decides between
// seeking from the few survivors and joining everything.
func (c *coster) aggStats(col algebra.ColID, cst types.Datum, rows float64) (*stats.ColumnStats, int64, types.Datum, bool) {
	a, ok := c.aggs[col]
	if !ok {
		return nil, 0, cst, false
	}
	cs, total, _ := c.colStats(a.Arg.(*algebra.ColRef).Col)
	if v, isNum := cst.AsFloat(); isNum && a.Func == algebra.AggSum && total > 0 {
		cst = types.NewFloat(v * math.Max(rows, 1) / float64(total))
	}
	return cs, total, cst, true
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
