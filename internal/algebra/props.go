package algebra

import "fmt"

// Props supplies the already-derived properties of one node's inputs,
// by input position: the Derive functions compute a node's property
// from its own fields and these answers, never from the trees its
// input fields point at. The package-level OutputCols, OuterRefs and
// DeliveredOrder answer from the trees (FromScratch) and so rederive a
// whole subtree per call; a caller that keeps properties per subtree
// (the optimizer's table entries, whose operator's input fields may be
// stale) implements Props over what it has cached.
type Props interface {
	OutputCols(input int) ColSet
	OuterRefs(input int) ColSet
	DeliveredOrder(input int) []Ordering
	// SegmentRefCols is the union of the Cols of the input's SegmentRef
	// leaves that a SegmentApply above the input owns.
	SegmentRefCols(input int) ColSet
}

// FromScratch is the Props behind the package-level functions: the
// inputs are Of's own input trees, and nothing is kept.
type FromScratch struct{ Of Rel }

func (f FromScratch) OutputCols(i int) ColSet         { return OutputCols(f.input(i)) }
func (f FromScratch) OuterRefs(i int) ColSet          { return OuterRefs(f.input(i)) }
func (f FromScratch) DeliveredOrder(i int) []Ordering { return DeliveredOrder(f.input(i)) }
func (f FromScratch) SegmentRefCols(i int) ColSet {
	in := f.input(i)
	return DeriveSegmentRefCols(FromScratch{in}, in)
}

func (f FromScratch) input(i int) Rel {
	l, r := InputsOf(f.Of)
	if i == 0 {
		return l
	}
	return r
}

// ColsOf answers for whole subtrees: their output columns and their
// Instance. The rewrite rules read their inputs' through one: TreeCols
// derives them from the tree at every call, while the optimizer answers
// for the subtrees its memo holds from what the memo has derived
// already.
type ColsOf interface {
	ColsOf(r Rel) ColSet
	InstanceOf(r Rel) Instance
}

// TreeCols is the ColsOf that derives from the tree (OutputCols,
// InstanceOf).
type TreeCols struct{}

func (TreeCols) ColsOf(r Rel) ColSet       { return OutputCols(r) }
func (TreeCols) InstanceOf(r Rel) Instance { return InstanceOf(r) }

// InputsOf is r.Inputs() without the slice: nil where absent.
func InputsOf(r Rel) (left, right Rel) {
	switch t := r.(type) {
	case *Select:
		return t.Input, nil
	case *Project:
		return t.Input, nil
	case *GroupBy:
		return t.Input, nil
	case *Max1Row:
		return t.Input, nil
	case *Sort:
		return t.Input, nil
	case *Top:
		return t.Input, nil
	case *RowNumber:
		return t.Input, nil
	case *Exchange:
		return t.Input, nil
	case *Join:
		return t.Left, t.Right
	case *Apply:
		return t.Left, t.Right
	case *SegmentApply:
		return t.Input, t.Inner
	case *UnionAll:
		return t.Left, t.Right
	case *Difference:
		return t.Left, t.Right
	}
	return nil, nil
}

// numInputs is len(r.Inputs()).
func numInputs(r Rel) int {
	switch left, right := InputsOf(r); {
	case left == nil:
		return 0
	case right == nil:
		return 1
	}
	return 2
}

// OutputCols returns the set of column IDs the expression produces.
func OutputCols(r Rel) ColSet { return DeriveOutputCols(FromScratch{r}, r) }

// DeriveOutputCols computes r's output columns from its inputs', which
// it asks p for.
func DeriveOutputCols(p Props, r Rel) ColSet {
	switch t := r.(type) {
	case *Get:
		return NewColSet(t.Cols...)
	case *Select:
		return p.OutputCols(0)
	case *Project:
		out := t.Passthrough
		for _, it := range t.Items {
			out.Add(it.Col)
		}
		return out
	case *Join:
		out := p.OutputCols(0)
		if t.Kind.ReturnsRightCols() {
			out.UnionWith(p.OutputCols(1))
		}
		return out
	case *Apply:
		out := p.OutputCols(0)
		if t.Kind.ReturnsRightCols() {
			out.UnionWith(p.OutputCols(1))
		}
		return out
	case *GroupBy:
		out := t.GroupCols
		for _, a := range t.Aggs {
			out.Add(a.Col)
		}
		return out
	case *SegmentApply:
		return p.OutputCols(1)
	case *SegmentRef:
		return NewColSet(t.Cols...)
	case *Max1Row:
		return p.OutputCols(0)
	case *UnionAll:
		return NewColSet(t.OutCols...)
	case *Difference:
		return NewColSet(t.OutCols...)
	case *Values:
		return NewColSet(t.Cols...)
	case *Sort:
		return p.OutputCols(0)
	case *Top, *Exchange:
		return p.OutputCols(0)
	case *RowNumber:
		out := p.OutputCols(0)
		out.Add(t.Col)
		return out
	}
	panic(fmt.Sprintf("algebra: OutputCols: unhandled %T", r))
}

// scalarFreeCols returns the columns a scalar needs from its
// environment: direct references plus the outer references of any
// nested relational subexpressions.
func scalarFreeCols(s Scalar) ColSet {
	if s == nil {
		return ColSet{}
	}
	free := ScalarCols(s)
	for _, sub := range ScalarRelInputs(s) {
		free.UnionWith(OuterRefs(sub))
	}
	return free
}

// RelScalars returns the scalar expressions attached to the node
// itself (not its children).
func RelScalars(r Rel) []Scalar { return relScalars(r) }

// relScalars returns the scalar expressions attached to the node
// itself (not its children).
func relScalars(r Rel) []Scalar {
	switch t := r.(type) {
	case *Select:
		return []Scalar{t.Filter}
	case *Project:
		out := make([]Scalar, 0, len(t.Items))
		for _, it := range t.Items {
			out = append(out, it.Expr)
		}
		return out
	case *Join:
		if t.On != nil {
			return []Scalar{t.On}
		}
	case *Apply:
		if t.On != nil {
			return []Scalar{t.On}
		}
	case *GroupBy:
		out := make([]Scalar, 0, len(t.Aggs))
		for _, a := range t.Aggs {
			if a.Arg != nil {
				out = append(out, a.Arg)
			}
		}
		return out
	case *Values:
		var out []Scalar
		for _, row := range t.Rows {
			out = append(out, row...)
		}
		return out
	}
	return nil
}

// OuterRefs returns the expression's free column references: columns
// used anywhere inside (including nested subqueries in scalar position)
// that the expression does not itself produce. A non-empty result means
// the expression is correlated — it is a parameterized expression in
// the paper's sense.
func OuterRefs(r Rel) ColSet { return DeriveOuterRefs(FromScratch{r}, r) }

// DeriveOuterRefs computes r's free column references from its own
// scalars and its inputs' properties, which it asks p for.
func DeriveOuterRefs(p Props, r Rel) ColSet {
	var need ColSet
	for _, s := range relScalars(r) {
		need.UnionWith(scalarFreeCols(s))
	}
	var bound ColSet
	// An Apply's right side's free refs may be bound by its left's
	// output — this is exactly what Apply is for — so the inputs of
	// every operator are treated alike.
	for i, n := 0, numInputs(r); i < n; i++ {
		need.UnionWith(p.OuterRefs(i))
		bound.UnionWith(p.OutputCols(i))
	}
	if _, ok := r.(*SegmentApply); ok {
		// SegmentRef columns are bound by the apply itself.
		bound.UnionWith(p.SegmentRefCols(1))
	}
	need.DifferenceWith(bound)
	need.DifferenceWith(DeriveOutputCols(p, r))
	return need
}

// ApplyBindingCols is an Apply's binding signature: the free column
// references of its inner side that its left side produces — the
// columns the inner expression can actually observe through
// correlation parameters. The other free references are ambient, bound
// by enclosing scopes. Two outer rows that agree on the signature
// columns parameterize the inner expression identically, so the
// executor's batched Apply deduplicates inner executions on exactly
// this set (Guravannavar's state-retention invocation, keyed per
// distinct binding).
func ApplyBindingCols(a *Apply) ColSet {
	return OuterRefs(a.Right).Intersection(OutputCols(a.Left))
}

// BindingSignature is ApplyBindingCols derived from the properties p
// holds for a's inputs.
func BindingSignature(p Props, a *Apply) ColSet {
	return p.OuterRefs(1).Intersection(p.OutputCols(0))
}

// HasForeignSegmentRefs reports whether r contains SegmentRef leaves
// owned by a SegmentApply outside r. Such refs read segment state that
// is invisible to OuterRefs, so r cannot run on a parallel worker, and
// a hash-join build over r cannot be shared across Opens.
func HasForeignSegmentRefs(r Rel) bool {
	return len(collectSegmentRefs(r)) > 0
}

// DeriveSegmentRefCols computes the union of the Cols of the SegmentRef
// leaves at or below r that a SegmentApply above r owns — the refs
// collectSegmentRefs gathers — from r's own fields and its inputs'
// answers.
func DeriveSegmentRefCols(p Props, r Rel) ColSet {
	var out ColSet
	switch t := r.(type) {
	case *SegmentRef:
		return NewColSet(t.Cols...)
	case *SegmentApply:
		return p.SegmentRefCols(0) // Input is in the enclosing scope
	}
	for i, n := 0, numInputs(r); i < n; i++ {
		out.UnionWith(p.SegmentRefCols(i))
	}
	for _, s := range relScalars(r) {
		for _, sub := range ScalarRelInputs(s) {
			out.UnionWith(DeriveSegmentRefCols(FromScratch{sub}, sub))
		}
	}
	return out
}

// collectSegmentRefs gathers SegmentRef leaves in r without descending
// into nested SegmentApply scopes (their refs belong to the nested
// apply).
func collectSegmentRefs(r Rel) []*SegmentRef {
	var out []*SegmentRef
	var walk func(Rel)
	walk = func(n Rel) {
		switch t := n.(type) {
		case *SegmentRef:
			out = append(out, t)
			return
		case *SegmentApply:
			walk(t.Input) // Input is in the enclosing scope
			return
		}
		for _, c := range n.Inputs() {
			walk(c)
		}
		for _, s := range relScalars(n) {
			for _, sub := range ScalarRelInputs(s) {
				walk(sub)
			}
		}
	}
	walk(r)
	return out
}

// KeyCols infers a candidate key for the expression. ok=false means no
// key could be inferred (the optimizer then manufactures one with
// RowNumber). An empty set with ok=true means the expression produces
// at most one row.
func KeyCols(r Rel) (ColSet, bool) {
	switch t := r.(type) {
	case *Get:
		return t.KeyCols.Copy(), !t.KeyCols.Empty()
	case *Select:
		return KeyCols(t.Input)
	case *Project:
		k, ok := KeyCols(t.Input)
		if ok && k.SubsetOf(OutputCols(t)) {
			return k, true
		}
		return ColSet{}, false
	case *Join:
		return joinKey(t.Kind, t.Left, t.Right)
	case *Apply:
		return joinKey(t.Kind, t.Left, t.Right)
	case *GroupBy:
		if t.Kind == ScalarGroupBy {
			return ColSet{}, true // exactly one row
		}
		return t.GroupCols.Copy(), true
	case *Max1Row:
		return ColSet{}, true
	case *Values:
		if len(t.Rows) <= 1 {
			return ColSet{}, true
		}
		return ColSet{}, false
	case *Sort:
		return KeyCols(t.Input)
	case *Top:
		if t.N <= 1 {
			return ColSet{}, true
		}
		return KeyCols(t.Input)
	case *RowNumber:
		return NewColSet(t.Col), true
	case *SegmentRef:
		return ColSet{}, false
	case *SegmentApply, *UnionAll, *Difference:
		return ColSet{}, false
	}
	return ColSet{}, false
}

func joinKey(kind JoinKind, left, right Rel) (ColSet, bool) {
	lk, lok := KeyCols(left)
	if kind == SemiJoin || kind == AntiSemiJoin {
		return lk, lok
	}
	rk, rok := KeyCols(right)
	if lok && rok {
		return lk.Union(rk), true
	}
	return ColSet{}, false
}

// NotNullCols returns output columns guaranteed non-NULL. md supplies
// base-table nullability.
func NotNullCols(md *Metadata, r Rel) ColSet {
	switch t := r.(type) {
	case *Get:
		var out ColSet
		for _, c := range t.Cols {
			if md.Column(c).NotNull {
				out.Add(c)
			}
		}
		return out
	case *Select:
		return NotNullCols(md, t.Input)
	case *Project:
		in := NotNullCols(md, t.Input)
		out := in.Intersection(t.Passthrough)
		for _, it := range t.Items {
			if scalarNotNull(it.Expr, in) {
				out.Add(it.Col)
			}
		}
		return out
	case *Join:
		out := NotNullCols(md, t.Left)
		if t.Kind.InnerOrCross() {
			out.UnionWith(NotNullCols(md, t.Right))
		}
		// LeftOuterJoin: right columns become nullable.
		return out
	case *Apply:
		out := NotNullCols(md, t.Left)
		if t.Kind.InnerOrCross() {
			out.UnionWith(NotNullCols(md, t.Right))
		}
		return out
	case *GroupBy:
		out := t.GroupCols.Intersection(NotNullCols(md, t.Input))
		for _, a := range t.Aggs {
			// count/count(*) never produce NULL: vector groups are
			// non-empty by construction, and scalar count(∅) is 0.
			if a.Func == AggCount || a.Func == AggCountStar {
				out.Add(a.Col)
			}
		}
		return out
	case *SegmentApply:
		return NotNullCols(md, t.Inner)
	case *SegmentRef:
		var out ColSet
		for _, c := range t.Cols {
			if md.Column(c).NotNull {
				out.Add(c)
			}
		}
		return out
	case *Max1Row:
		return NotNullCols(md, t.Input)
	case *UnionAll:
		ln := NotNullCols(md, t.Left)
		rn := NotNullCols(md, t.Right)
		var out ColSet
		for i, oc := range t.OutCols {
			if ln.Contains(t.LeftCols[i]) && rn.Contains(t.RightCols[i]) {
				out.Add(oc)
			}
		}
		return out
	case *Difference:
		ln := NotNullCols(md, t.Left)
		var out ColSet
		for i, oc := range t.OutCols {
			if ln.Contains(t.LeftCols[i]) {
				out.Add(oc)
			}
		}
		return out
	case *Values:
		var out ColSet
		for i, c := range t.Cols {
			nn := len(t.Rows) > 0
			for _, row := range t.Rows {
				cst, ok := row[i].(*Const)
				if !ok || cst.Val.IsNull() {
					nn = false
					break
				}
			}
			if nn {
				out.Add(c)
			}
		}
		return out
	case *Sort:
		return NotNullCols(md, t.Input)
	case *Top:
		return NotNullCols(md, t.Input)
	case *RowNumber:
		out := NotNullCols(md, t.Input)
		out.Add(t.Col)
		return out
	}
	return ColSet{}
}

func scalarNotNull(s Scalar, notNullIn ColSet) bool {
	switch t := s.(type) {
	case *Const:
		return !t.Val.IsNull()
	case *ColRef:
		return notNullIn.Contains(t.Col)
	case *Arith:
		return scalarNotNull(t.L, notNullIn) && scalarNotNull(t.R, notNullIn)
	case *IsNull:
		return true
	}
	return false
}

// ProducedCols lists the column IDs a node itself introduces.
func ProducedCols(n Rel) []ColID {
	switch t := n.(type) {
	case *Get:
		return t.Cols
	case *Project:
		out := make([]ColID, 0, len(t.Items))
		for _, it := range t.Items {
			out = append(out, it.Col)
		}
		return out
	case *GroupBy:
		out := make([]ColID, 0, len(t.Aggs))
		for _, a := range t.Aggs {
			out = append(out, a.Col)
		}
		return out
	case *UnionAll:
		return t.OutCols
	case *Difference:
		return t.OutCols
	case *Values:
		return t.Cols
	case *RowNumber:
		return []ColID{t.Col}
	case *SegmentRef:
		return t.Cols
	}
	return nil
}

// VisitRel walks the relational tree depth-first (pre-order), including
// relational subexpressions nested inside scalars, calling f on each
// node. If f returns false the node's subtree is skipped.
func VisitRel(r Rel, f func(Rel) bool) {
	if r == nil || !f(r) {
		return
	}
	for _, c := range r.Inputs() {
		VisitRel(c, f)
	}
	for _, s := range relScalars(r) {
		for _, sub := range ScalarRelInputs(s) {
			VisitRel(sub, f)
		}
	}
}

// MaxCardOne reports whether the expression produces at most one row.
func MaxCardOne(r Rel) bool {
	switch t := r.(type) {
	case *Max1Row:
		return true
	case *GroupBy:
		return t.Kind == ScalarGroupBy
	case *Select:
		return MaxCardOne(t.Input)
	case *Project:
		return MaxCardOne(t.Input)
	case *Values:
		return len(t.Rows) <= 1
	case *Top:
		return t.N <= 1 || MaxCardOne(t.Input)
	case *Sort:
		return MaxCardOne(t.Input)
	case *RowNumber:
		return MaxCardOne(t.Input)
	case *Join:
		if t.Kind == SemiJoin || t.Kind == AntiSemiJoin {
			return MaxCardOne(t.Left)
		}
		return MaxCardOne(t.Left) && MaxCardOne(t.Right)
	}
	return false
}
