package exec

import (
	"orthoq/internal/algebra"
	"orthoq/internal/sql/catalog"
)

// The physical selectors: which index a table access reads and which
// algorithm runs a join or an aggregation are functions of the plan
// alone — the access's filter and the columns bound at Open, the
// node's keys and the orders its inputs deliver — and nothing a caller
// configures; whether an Apply probes an index or runs batched is a
// function of the plan and the catalog. The compile step, the cost
// model and the rules (opt) and EXPLAIN ask the same functions, so
// what EXPLAIN prints and what the plan was priced as is what runs. An
// order a merge join or a streaming aggregation needs is the plan's to
// deliver (an ordered index scan, a Sort node); the executor never
// inserts a sort of its own.

// Algorithm names the selectors answer with.
const (
	AlgHash       = "hash"
	AlgMerge      = "merge"
	AlgStream     = "stream"
	AlgNestedLoop = "nested-loop"
)

// JoinAlg answers which algorithm runs a join whose equality keys the
// caller has split (SplitJoinKeys), given the orders its two inputs
// deliver: nested loops without keys, merge exactly when both inputs
// already arrive sorted on the keys, hash otherwise. The delivered
// orders are the caller's to supply — the compiler derives them from
// the tree it compiles, the optimizer reads them off its memo — so the
// selectors walk no tree.
func JoinAlg(lKeys, rKeys []algebra.ColID, lOrder, rOrder []algebra.Ordering) string {
	if len(lKeys) == 0 {
		return AlgNestedLoop
	}
	if _, _, lSorted, rSorted := mergeKeySeq(lKeys, rKeys, lOrder, rOrder); lSorted && rSorted {
		return AlgMerge
	}
	return AlgHash
}

// AggAlg answers which algorithm runs aggregation gb over an input
// delivering inOrder: streaming exactly when the order makes every
// group contiguous, hash otherwise.
func AggAlg(gb *algebra.GroupBy, inOrder []algebra.Ordering) string {
	if algebra.GroupedBy(inOrder, gb.GroupCols) {
		return AlgStream
	}
	return AlgHash
}

// AccessPath is how a Get reads its table: the index it reads, or a
// full scan.
type AccessPath struct {
	// Index is the index the Get reads; nil means a full scan.
	Index *catalog.Index
	// Keys, on an equality seek, is the key expression for each leading
	// column of Index the filter binds, in index order; empty on a full
	// scan and on an ordered walk.
	Keys []algebra.Scalar
	// Reverse, on an ordered walk, reads the index backward: every key
	// of the Get's Order is descending.
	Reverse bool
}

// Seek reports whether the access looks Keys up in Index.
func (a AccessPath) Seek() bool { return len(a.Keys) > 0 }

// Access answers which index Get g over table tbl reads, given its
// filter's conjuncts conjs and the columns bound at Open (correlation
// parameters; constants need none). A Get with an Order walks the
// ordered index whose leading columns are the Order's, all keys
// ascending or all descending, and seeks nothing. Otherwise it seeks
// the index with the longest prefix of leading columns that equality
// conjuncts bind to expressions over bound columns — a hash index only
// when every column is bound — and scans when no index qualifies. The
// filter stays the seek's residual whole: key conjuncts are re-checked
// for NULL semantics. Keys are appended to keys[:0]. The compile step,
// the cost model, JoinToApply, the order rules and EXPLAIN all ask
// this one function.
func Access(tbl *catalog.Table, g *algebra.Get, conjs []algebra.Scalar, bound algebra.ColSet, keys []algebra.Scalar) AccessPath {
	if len(g.Order) > 0 {
		return orderedAccess(tbl, g)
	}
	self := algebra.NewColSet(g.Cols...)
	var best *catalog.Index
	bestLen := 0
	for i := range tbl.Indexes {
		idx := &tbl.Indexes[i]
		n := 0
		for n < len(idx.Cols) && seekKey(g, self, conjs, bound, idx.Cols[n]) != nil {
			n++
		}
		if n > bestLen && (idx.Ordered || n == len(idx.Cols)) {
			best, bestLen = idx, n
		}
	}
	if best == nil {
		return AccessPath{}
	}
	keys = keys[:0]
	for _, ord := range best.Cols[:bestLen] {
		keys = append(keys, seekKey(g, self, conjs, bound, ord))
	}
	return AccessPath{Index: best, Keys: keys}
}

// seekKey is the comparand an equality conjunct binds column ord of g
// to, when it is evaluable at Open — it reads bound columns only, none
// of g's own, and no subquery — or nil.
func seekKey(g *algebra.Get, self algebra.ColSet, conjs []algebra.Scalar, bound algebra.ColSet, ord int) algebra.Scalar {
	col := g.Cols[ord]
	for _, c := range conjs {
		cmp, ok := c.(*algebra.Cmp)
		if !ok || cmp.Op != algebra.CmpEq {
			continue
		}
		other := cmp.R
		if l, ok := cmp.L.(*algebra.ColRef); !ok || l.Col != col {
			if r, ok := cmp.R.(*algebra.ColRef); !ok || r.Col != col {
				continue
			}
			other = cmp.L
		}
		if oc := algebra.ScalarCols(other); !oc.Intersects(self) && oc.SubsetOf(bound) && !algebra.HasSubquery(other) {
			return other
		}
	}
	return nil
}

// orderedAccess is the ordered index whose leading columns are g's
// Order columns, walked forward when every key is ascending and
// backward when every key is descending; mixed directions cannot use
// one permutation.
func orderedAccess(tbl *catalog.Table, g *algebra.Get) AccessPath {
	desc := g.Order[0].Desc
	for _, o := range g.Order {
		if o.Desc != desc {
			return AccessPath{}
		}
	}
indexes:
	for i := range tbl.Indexes {
		idx := &tbl.Indexes[i]
		if !idx.Ordered || len(idx.Cols) < len(g.Order) {
			continue
		}
		for k, o := range g.Order {
			if g.Cols[idx.Cols[k]] != o.Col {
				continue indexes
			}
		}
		return AccessPath{Index: idx, Reverse: desc}
	}
	return AccessPath{}
}

// CompiledAccess is the access compile gives Get g under filter: in a
// plan every column the filter reads that g does not produce is a
// correlation parameter, bound at Open. EXPLAIN asks it too.
func CompiledAccess(tbl *catalog.Table, g *algebra.Get, filter algebra.Scalar) AccessPath {
	bound := algebra.ScalarCols(filter)
	bound.DifferenceWith(algebra.NewColSet(g.Cols...))
	return Access(tbl, g, algebra.Conjuncts(filter), bound, nil)
}

// Estimates is the optimizer's estimate for each node of one plan, read
// off the search's winners. It is the only cardinality estimate the
// executor reads: compile sizes hash tables from it, and EXPLAIN and a
// traced run print it. No physical choice reads it. A node with no entry
// is unknown: its operator gets no size hint. Read-only once built;
// every strand of a run shares it.
type Estimates map[algebra.Rel]struct {
	// Rows is the node's estimated output rows — per execution, for a
	// node inside an Apply's or SegmentApply's inner side.
	Rows float64
	// Cost is the estimated cost of the subtree the node roots.
	Cost float64
}

// joinPresizeMax caps the build rows a hash-join table is pre-sized
// for: an estimate can be far off (a product of selectivities), and a
// map grows geometrically anyway.
const joinPresizeMax = 1 << 16

// sizeHint is rel's estimated rows as a table pre-size, capped at
// limit; 0 when unknown.
func (e Estimates) sizeHint(rel algebra.Rel, limit int) int {
	rows := e[rel].Rows
	if !(rows >= 1) {
		return 0
	}
	return int(min(rows, float64(limit)))
}

// applyStrategy answers which strategy runs Apply a over the tables
// table resolves: "probe" when its inner side is an index lookup on its
// outer row's columns (probeSeek), else "batched". The answer reads the
// plan and the catalog alone; how a batched Apply memoizes and whether
// it spreads its bindings over workers are decided while it runs
// (batchApplyIter). Compile asks it for every Apply it lowers, EXPLAIN
// for every Apply it prints.
func applyStrategy(table func(string) (*catalog.Table, bool), a *algebra.Apply) string {
	if _, _, _, ok := probeSeek(table, a); ok {
		return "probe"
	}
	return "batched"
}

// probeSeek answers whether Apply a runs as an index-lookup probe, and
// with which seek: its inner side is a Select over a Get — under a
// Project that only passes columns through, when the Apply returns no
// inner column — that Access makes an equality seek whose every key is
// a column the Apply's left side produces. The answer reads the plan
// and the catalog (table resolves a Get's table), nothing estimated.
func probeSeek(table func(string) (*catalog.Table, bool), a *algebra.Apply) (sel *algebra.Select, g *algebra.Get, acc AccessPath, ok bool) {
	right := a.Right
	if p, isProj := right.(*algebra.Project); isProj && len(p.Items) == 0 && !a.Kind.ReturnsRightCols() {
		right = p.Input
	}
	if sel, ok = right.(*algebra.Select); !ok {
		return nil, nil, AccessPath{}, false
	}
	if g, ok = sel.Input.(*algebra.Get); !ok {
		return nil, nil, AccessPath{}, false
	}
	tbl, ok := table(g.Table)
	if !ok {
		return nil, nil, AccessPath{}, false
	}
	if acc = CompiledAccess(tbl, g, sel.Filter); !acc.Seek() {
		return nil, nil, AccessPath{}, false
	}
	leftCols := algebra.OutputCols(a.Left)
	for _, k := range acc.Keys {
		if c, isCol := k.(*algebra.ColRef); !isCol || !leftCols.Contains(c.Col) {
			return nil, nil, AccessPath{}, false
		}
	}
	return sel, g, acc, true
}

// schema resolves a table name to the catalog table of the version
// this query reads.
func (c *Context) schema(name string) (*catalog.Table, bool) {
	v, ok := c.table(name)
	if !ok {
		return nil, false
	}
	return v.Schema, true
}
