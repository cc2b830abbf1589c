package algebra

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"orthoq/internal/sql/types"
)

func TestColSetBasics(t *testing.T) {
	s := NewColSet(3, 1, 2)
	if s.Len() != 3 || !s.Contains(2) || s.Contains(4) {
		t.Fatalf("basic membership failed: %v", s)
	}
	if got := s.String(); got != "(1,2,3)" {
		t.Errorf("String = %s", got)
	}
	o := NewColSet(2, 4)
	if u := s.Union(o); u.Len() != 4 {
		t.Errorf("Union = %v", u)
	}
	if d := s.Difference(o); !d.Equals(NewColSet(1, 3)) {
		t.Errorf("Difference = %v", d)
	}
	if i := s.Intersection(o); !i.Equals(NewColSet(2)) {
		t.Errorf("Intersection = %v", i)
	}
	if !NewColSet(1, 2).SubsetOf(s) || s.SubsetOf(o) {
		t.Error("SubsetOf wrong")
	}
	if !s.Intersects(o) || s.Intersects(NewColSet(9)) {
		t.Error("Intersects wrong")
	}
	c := s.Copy()
	c.Add(99)
	if s.Contains(99) {
		t.Error("Copy aliases")
	}
	var zero ColSet
	if !zero.Empty() || zero.Len() != 0 {
		t.Error("zero value not empty")
	}
	zero.Add(1) // must not panic
}

type genColSet struct{ S ColSet }

func (genColSet) Generate(r *rand.Rand, _ int) reflect.Value {
	var s ColSet
	for i := 0; i < r.Intn(8); i++ {
		s.Add(ColID(r.Intn(10) + 1))
	}
	return reflect.ValueOf(genColSet{s})
}

func TestColSetAlgebraProperties(t *testing.T) {
	f := func(a, b genColSet) bool {
		u := a.S.Union(b.S)
		// union is commutative and contains both
		if !u.Equals(b.S.Union(a.S)) || !a.S.SubsetOf(u) || !b.S.SubsetOf(u) {
			return false
		}
		// difference and intersection partition a
		d := a.S.Difference(b.S)
		i := a.S.Intersection(b.S)
		if d.Intersects(i) {
			return false
		}
		return d.Union(i).Equals(a.S)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// buildTestTables assembles customer(c_custkey, c_name) and
// orders(o_orderkey, o_custkey, o_totalprice) as in the paper's Q1.
func buildTestTables(md *Metadata) (cust, ord *Get) {
	ck := md.AddTableColumn("customer", "customer", "c_custkey", types.Int, true, 0)
	cn := md.AddTableColumn("customer", "customer", "c_name", types.String, true, 1)
	cust = &Get{Table: "customer", Cols: []ColID{ck, cn}, KeyCols: NewColSet(ck)}
	ok := md.AddTableColumn("orders", "orders", "o_orderkey", types.Int, true, 0)
	oc := md.AddTableColumn("orders", "orders", "o_custkey", types.Int, true, 1)
	op := md.AddTableColumn("orders", "orders", "o_totalprice", types.Float, true, 2)
	ord = &Get{Table: "orders", Cols: []ColID{ok, oc, op}, KeyCols: NewColSet(ok)}
	return cust, ord
}

// paperQ1Apply builds Figure 2: Select(1000000<X)(customer Apply
// SGb(X:=sum(o_totalprice))(Select(o_custkey=c_custkey)(orders))).
func paperQ1Apply(md *Metadata) (Rel, *Get, *Get, ColID) {
	cust, ord := buildTestTables(md)
	ck := cust.Cols[0]
	oc, op := ord.Cols[1], ord.Cols[2]
	corrSel := &Select{
		Input:  ord,
		Filter: &Cmp{Op: CmpEq, L: &ColRef{Col: oc}, R: &ColRef{Col: ck}},
	}
	x := md.AddColumn("x", types.Float)
	sgb := &GroupBy{
		Kind:  ScalarGroupBy,
		Input: corrSel,
		Aggs:  []AggItem{{Col: x, Func: AggSum, Arg: &ColRef{Col: op}}},
	}
	apply := &Apply{Kind: CrossJoin, Left: cust, Right: sgb}
	root := &Select{
		Input:  apply,
		Filter: &Cmp{Op: CmpLt, L: &Const{Val: types.NewFloat(1000000)}, R: &ColRef{Col: x}},
	}
	return root, cust, ord, x
}

func TestOutputCols(t *testing.T) {
	md := NewMetadata()
	root, cust, ord, x := paperQ1Apply(md)
	want := NewColSet(cust.Cols...)
	want.Add(x)
	if got := OutputCols(root); !got.Equals(want) {
		t.Errorf("OutputCols = %v, want %v", got, want)
	}
	if got := OutputCols(ord); !got.Equals(NewColSet(ord.Cols...)) {
		t.Errorf("Get output = %v", got)
	}
}

func TestOuterRefs(t *testing.T) {
	md := NewMetadata()
	root, cust, ord, _ := paperQ1Apply(md)
	ck := cust.Cols[0]

	// The correlated subquery (select + scalar agg over orders)
	// references c_custkey freely.
	ap := root.(*Select).Input.(*Apply)
	if got := OuterRefs(ap.Right); !got.Equals(NewColSet(ck)) {
		t.Errorf("subquery OuterRefs = %v, want {%d}", got, ck)
	}
	// The Apply binds the correlation: whole tree has none.
	if got := OuterRefs(root); !got.Empty() {
		t.Errorf("root OuterRefs = %v, want empty", got)
	}
	if got := OuterRefs(ord); !got.Empty() {
		t.Errorf("Get OuterRefs = %v", got)
	}
}

func TestOuterRefsThroughScalarSubquery(t *testing.T) {
	// Before Apply introduction, the subquery sits inside the filter
	// scalar (Figure 3). Its free vars must surface as refs bound by
	// the Select's own input.
	md := NewMetadata()
	cust, ord := buildTestTables(md)
	ck := cust.Cols[0]
	oc, op := ord.Cols[1], ord.Cols[2]
	x := md.AddColumn("x", types.Float)
	sub := &GroupBy{
		Kind: ScalarGroupBy,
		Input: &Select{Input: ord,
			Filter: &Cmp{Op: CmpEq, L: &ColRef{Col: oc}, R: &ColRef{Col: ck}}},
		Aggs: []AggItem{{Col: x, Func: AggSum, Arg: &ColRef{Col: op}}},
	}
	root := &Select{
		Input: cust,
		Filter: &Cmp{Op: CmpLt,
			L: &Const{Val: types.NewFloat(1000000)},
			R: &Subquery{Input: sub, Col: x}},
	}
	if got := OuterRefs(sub); !got.Equals(NewColSet(ck)) {
		t.Errorf("subquery refs = %v", got)
	}
	if got := OuterRefs(root); !got.Empty() {
		t.Errorf("root refs = %v, want empty (bound by customer)", got)
	}
}

func TestKeyInference(t *testing.T) {
	md := NewMetadata()
	root, cust, ord, _ := paperQ1Apply(md)
	ck := cust.Cols[0]

	if k, ok := KeyCols(cust); !ok || !k.Equals(NewColSet(ck)) {
		t.Errorf("customer key = %v,%v", k, ok)
	}
	// Select preserves keys.
	sel := &Select{Input: cust, Filter: TrueScalar()}
	if k, ok := KeyCols(sel); !ok || !k.Equals(NewColSet(ck)) {
		t.Errorf("select key = %v,%v", k, ok)
	}
	// Scalar GroupBy: at most one row => empty key.
	ap := root.(*Select).Input.(*Apply)
	if k, ok := KeyCols(ap.Right); !ok || !k.Empty() {
		t.Errorf("scalar GB key = %v,%v", k, ok)
	}
	// Apply(cust, one-row-subquery): key = customer key.
	if k, ok := KeyCols(ap); !ok || !k.Equals(NewColSet(ck)) {
		t.Errorf("apply key = %v,%v", k, ok)
	}
	// Vector GroupBy keyed on grouping cols.
	gb := &GroupBy{Kind: VectorGroupBy, Input: ord, GroupCols: NewColSet(ord.Cols[1])}
	if k, ok := KeyCols(gb); !ok || !k.Equals(NewColSet(ord.Cols[1])) {
		t.Errorf("vector GB key = %v,%v", k, ok)
	}
	// Inner join composes keys.
	j := &Join{Kind: InnerJoin, Left: cust, Right: ord}
	if k, ok := KeyCols(j); !ok || !k.Equals(NewColSet(ck, ord.Cols[0])) {
		t.Errorf("join key = %v,%v", k, ok)
	}
	// Semijoin keeps left key.
	sj := &Join{Kind: SemiJoin, Left: cust, Right: ord}
	if k, ok := KeyCols(sj); !ok || !k.Equals(NewColSet(ck)) {
		t.Errorf("semijoin key = %v,%v", k, ok)
	}
	// UnionAll has no key.
	if _, ok := KeyCols(&UnionAll{Left: cust, Right: cust}); ok {
		t.Error("union has a key?")
	}
	// RowNumber manufactures one.
	rn := &RowNumber{Input: &UnionAll{Left: cust, Right: cust}, Col: md.AddColumn("rn", types.Int)}
	if k, ok := KeyCols(rn); !ok || !k.Equals(NewColSet(rn.Col)) {
		t.Errorf("rownumber key = %v,%v", k, ok)
	}
}

func TestNotNullCols(t *testing.T) {
	md := NewMetadata()
	cust, ord := buildTestTables(md)
	// Base columns declared not-null.
	if got := NotNullCols(md, cust); !got.Equals(NewColSet(cust.Cols...)) {
		t.Errorf("customer notnull = %v", got)
	}
	// Outer join nullifies the right side.
	loj := &Join{Kind: LeftOuterJoin, Left: cust, Right: ord}
	if got := NotNullCols(md, loj); !got.Equals(NewColSet(cust.Cols...)) {
		t.Errorf("LOJ notnull = %v", got)
	}
	// count(*) result is not null.
	c := md.AddColumn("cnt", types.Int)
	gb := &GroupBy{Kind: VectorGroupBy, Input: ord, GroupCols: NewColSet(ord.Cols[1]),
		Aggs: []AggItem{{Col: c, Func: AggCountStar}}}
	got := NotNullCols(md, gb)
	if !got.Contains(c) || !got.Contains(ord.Cols[1]) {
		t.Errorf("GB notnull = %v", got)
	}
	// sum result may be null.
	s := md.AddColumn("s", types.Float)
	gb2 := &GroupBy{Kind: ScalarGroupBy, Input: ord,
		Aggs: []AggItem{{Col: s, Func: AggSum, Arg: &ColRef{Col: ord.Cols[2]}}}}
	if NotNullCols(md, gb2).Contains(s) {
		t.Error("scalar sum marked notnull")
	}
}

func TestConjunctionHelpers(t *testing.T) {
	a := &Cmp{Op: CmpEq, L: &ColRef{Col: 1}, R: &ColRef{Col: 2}}
	b := &Cmp{Op: CmpLt, L: &ColRef{Col: 3}, R: &Const{Val: types.NewInt(5)}}
	if got := ConjoinAll(); !IsTrueConst(got) {
		t.Error("empty conjunction must be TRUE")
	}
	if got := ConjoinAll(a); got != Scalar(a) {
		t.Error("single conjunct must unwrap")
	}
	c := ConjoinAll(a, ConjoinAll(b, nil), TrueScalar())
	cs := Conjuncts(c)
	if len(cs) != 2 {
		t.Fatalf("Conjuncts = %d, want 2", len(cs))
	}
	if Conjuncts(TrueScalar()) != nil {
		t.Error("TRUE has no conjuncts")
	}
}

func TestMapScalarCols(t *testing.T) {
	md := NewMetadata()
	_ = md
	orig := &Cmp{Op: CmpEq, L: &ColRef{Col: 1}, R: &Arith{Op: types.OpAdd, L: &ColRef{Col: 2}, R: &Const{Val: types.NewInt(1)}}}
	mapped := MapScalarCols(orig, map[ColID]ColID{1: 10, 2: 20}, nil)
	got := ScalarCols(mapped)
	if !got.Equals(NewColSet(10, 20)) {
		t.Errorf("mapped cols = %v", got)
	}
	// original untouched
	if !ScalarCols(orig).Equals(NewColSet(1, 2)) {
		t.Error("MapScalarCols mutated input")
	}

	// MapScalar replaces a column with any scalar.
	plus := &Arith{Op: types.OpAdd, L: &ColRef{Col: 5}, R: &Const{Val: types.NewInt(1)}}
	inlined := MapScalar(orig, func(c ColID) Scalar {
		if c == 1 {
			return plus
		}
		return nil
	}, nil)
	if got := inlined.(*Cmp).L; got != Scalar(plus) || !ScalarCols(inlined).Equals(NewColSet(2, 5)) {
		t.Errorf("MapScalar inlined %v, columns %v", got, ScalarCols(inlined))
	}

	// A quantifier's Arg is mapped and its value column renamed; a
	// non-column replacement leaves the value column as it is.
	input := &Get{Table: "t", Cols: []ColID{2}}
	q := &Quantified{Op: CmpEq, Arg: &ColRef{Col: 1}, Input: input, Col: 2}
	mq := MapScalarCols(q, map[ColID]ColID{1: 10, 2: 20}, nil).(*Quantified)
	if mq.Arg.(*ColRef).Col != 10 || mq.Col != 20 || mq.Input != Rel(input) || q.Col != 2 {
		t.Errorf("mapped quantifier: Arg %v, Col %d, Input %v", mq.Arg, mq.Col, mq.Input)
	}
	sq := MapScalar(q, func(c ColID) Scalar { return plus }, nil).(*Quantified)
	if sq.Arg != Scalar(plus) || sq.Col != 2 {
		t.Errorf("substituted quantifier: Arg %v, Col %d", sq.Arg, sq.Col)
	}
}

func TestCmpOpHelpers(t *testing.T) {
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	for _, op := range ops {
		if op.Commute().Commute() != op {
			t.Errorf("%v commute not involutive", op)
		}
		if op.Negate().Negate() != op {
			t.Errorf("%v negate not involutive", op)
		}
		for _, c := range []int{-1, 0, 1} {
			if op.Test(c) == op.Negate().Test(c) {
				t.Errorf("%v and negation agree on %d", op, c)
			}
			if op.Test(c) != op.Commute().Test(-c) {
				t.Errorf("%v commute mismatch on %d", op, c)
			}
		}
	}
}

func TestMaxCardOne(t *testing.T) {
	md := NewMetadata()
	_, _, ord, _ := paperQ1Apply(md)
	sgb := &GroupBy{Kind: ScalarGroupBy, Input: ord}
	if !MaxCardOne(sgb) {
		t.Error("scalar GB is single-row")
	}
	if !MaxCardOne(&Max1Row{Input: ord}) {
		t.Error("Max1Row is single-row")
	}
	if MaxCardOne(ord) {
		t.Error("Get is not single-row")
	}
	if !MaxCardOne(&Select{Input: sgb, Filter: TrueScalar()}) {
		t.Error("select over single-row is single-row")
	}
}

func TestFormatFigure2(t *testing.T) {
	// The printed Apply plan should match the shape of the paper's
	// Figure 2 (correlated execution of Q1).
	md := NewMetadata()
	root, _, _, _ := paperQ1Apply(md)
	got := FormatRel(md, root)
	want := `Select [1000000 < x]
  Apply (bind:customer.c_custkey)
    Get customer
    SGb aggs:[x:=sum(orders.o_totalprice)]
      Select [orders.o_custkey = customer.c_custkey]
        Get orders
`
	if got != want {
		t.Errorf("Figure 2 plan mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWithInputsCopies(t *testing.T) {
	md := NewMetadata()
	cust, ord := buildTestTables(md)
	j := &Join{Kind: InnerJoin, Left: cust, Right: ord}
	j2 := j.WithInputs([]Rel{ord, cust}).(*Join)
	if j2.Left != Rel(ord) || j2.Right != Rel(cust) {
		t.Error("WithInputs did not replace children")
	}
	if j.Left != Rel(cust) {
		t.Error("WithInputs mutated original")
	}
	if j2.Kind != InnerJoin {
		t.Error("WithInputs lost fields")
	}
}

func TestVisitRelCoversSubqueries(t *testing.T) {
	md := NewMetadata()
	cust, ord := buildTestTables(md)
	x := md.AddColumn("x", types.Float)
	sub := &GroupBy{Kind: ScalarGroupBy, Input: ord,
		Aggs: []AggItem{{Col: x, Func: AggSum, Arg: &ColRef{Col: ord.Cols[2]}}}}
	root := &Select{Input: cust,
		Filter: &Cmp{Op: CmpLt, L: &Const{Val: types.NewFloat(0)}, R: &Subquery{Input: sub, Col: x}}}
	var gets int
	VisitRel(root, func(r Rel) bool {
		if _, ok := r.(*Get); ok {
			gets++
		}
		return true
	})
	if gets != 2 {
		t.Errorf("VisitRel found %d Gets, want 2 (must descend into scalar subqueries)", gets)
	}
}

func TestFormatRemainingOperators(t *testing.T) {
	md := NewMetadata()
	cust, ord := buildTestTables(md)
	oc := md.AddColumn("out", types.Int)
	check := func(r Rel, want string) {
		t.Helper()
		got := FormatRel(md, r)
		if !strings.Contains(got, want) {
			t.Errorf("format of %T missing %q:\n%s", r, want, got)
		}
	}
	check(&UnionAll{Left: cust, Right: ord,
		LeftCols: []ColID{cust.Cols[0]}, RightCols: []ColID{ord.Cols[0]},
		OutCols: []ColID{oc}}, "UnionAll")
	check(&Difference{Left: cust, Right: ord,
		LeftCols: []ColID{cust.Cols[0]}, RightCols: []ColID{ord.Cols[0]},
		OutCols: []ColID{oc}}, "ExceptAll")
	check(&Values{Cols: nil, Rows: []ValuesRow{{}, {}}}, "Values (2 rows)")
	check(&Top{Input: cust, N: 7}, "Top 7")
	check(&Sort{Input: cust, By: []Ordering{{Col: cust.Cols[1], Desc: true}}},
		"Sort [customer.c_name desc]")
	check(&RowNumber{Input: cust, Col: md.AddColumn("rn", types.Int)}, "RowNumber [rn]")
	check(&Max1Row{Input: cust}, "Max1Row")
	sa := &SegmentApply{
		Input: ord, InputCols: ord.Cols,
		SegmentCols: NewColSet(ord.Cols[1]),
		Inner:       &SegmentRef{Cols: ord.Cols},
	}
	got := FormatRel(md, sa)
	if !strings.Contains(got, "SegmentApply [orders.o_custkey]") ||
		!strings.Contains(got, "SegmentRef") {
		t.Errorf("SegmentApply format:\n%s", got)
	}
	// Scalar forms.
	fs := FormatScalar(md, &Case{
		Whens: []When{{Cond: TrueScalar(), Then: &Const{Val: types.NewInt(1)}}},
		Else:  &Const{Val: types.NewInt(0)},
	})
	if fs != "CASE WHEN true THEN 1 ELSE 0 END" {
		t.Errorf("case format = %q", fs)
	}
	if s := FormatScalar(md, &InList{Arg: &ColRef{Col: cust.Cols[0]},
		List: []Scalar{&Const{Val: types.NewInt(1)}}, Negate: true}); s != "customer.c_custkey NOT IN (1)" {
		t.Errorf("in format = %q", s)
	}
	if s := FormatScalar(md, &Quantified{Op: CmpGt, All: true,
		Arg: &ColRef{Col: cust.Cols[0]}, Input: ord, Col: ord.Cols[0]}); !strings.Contains(s, "ALL") {
		t.Errorf("quantified format = %q", s)
	}
	if s := FormatScalar(md, nil); s != "true" {
		t.Errorf("nil scalar = %q", s)
	}
}
