package eval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// The vector ≡ interpreter property. A generator draws typed scalars
// over a fixed layout — Int, Float, String and Date columns with NULLs,
// a zero-heavy Int column for division, a column whose values mix Int
// and Float (the kind-mismatch fallback), an outer reference and a
// parameter slot — and random batches with random selection vectors,
// and an outer environment: column 7, and half the time some layout
// columns moved out of the batch into a left row, as a join residual
// reads its left side. For every row both forms must produce the same
// datum or the same error.

// vecLayout is the row layout of the property test. Column 7 binds
// through the outer env, column 9 is unbound.
var vecLayout = map[algebra.ColID]int{1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5}

// testLayout is the row layout of the hand-written shapes: columns 1..4
// at ordinals 0..3. Column 9 is deliberately unbound, column 7 binds
// through the outer env only.
func testLayout() map[algebra.ColID]int {
	return map[algebra.ColID]int{1: 0, 2: 1, 3: 2, 4: 3}
}

// testRows covers ints, floats, strings, dates and NULLs in every
// column position.
func testRows() []types.Row {
	return []types.Row{
		{types.NewInt(1), types.NewFloat(2.5), types.NewString("abc"), types.MustDate("1995-01-01")},
		{types.NewInt(-3), types.NewFloat(0), types.NewString(""), types.MustDate("2000-06-15")},
		{types.Null(types.Int), types.NewFloat(7), types.NewString("xyz"), types.NullUnknown},
		{types.NewInt(42), types.Null(types.Float), types.Null(types.String), types.MustDate("1995-01-01")},
	}
}

func cf(v float64) algebra.Scalar { return &algebra.Const{Val: types.NewFloat(v)} }

// testExprs enumerates scalar shapes across every node type, including
// column-vs-constant, column-vs-column and constant-vs-column
// comparisons, NULL operands, a folded constant and runtime errors.
func testExprs() []algebra.Scalar {
	col, ci, cs, cnull := colRef, constI, constS, nullC
	return []algebra.Scalar{
		col(1), col(2), col(3), col(7), col(9),
		ci(5), cnull(),
		cmp(algebra.CmpGt, col(1), ci(0)),
		cmp(algebra.CmpLe, col(1), cf(1.5)),
		cmp(algebra.CmpEq, col(3), cs("abc")),
		cmp(algebra.CmpNe, col(1), col(2)),
		cmp(algebra.CmpLt, ci(0), col(2)),
		cmp(algebra.CmpGe, col(1), cnull()),
		cmp(algebra.CmpEq, cnull(), col(1)),
		cmp(algebra.CmpGt, &algebra.Arith{Op: types.OpAdd, L: col(1), R: ci(1)}, cf(2)),
		&algebra.And{Args: []algebra.Scalar{
			cmp(algebra.CmpGt, col(1), ci(0)),
			cmp(algebra.CmpLt, col(2), cf(100)),
		}},
		&algebra.Or{Args: []algebra.Scalar{
			cmp(algebra.CmpLt, col(1), ci(0)),
			cmp(algebra.CmpEq, col(3), cs("xyz")),
		}},
		&algebra.Not{Arg: cmp(algebra.CmpGt, col(1), ci(0))},
		&algebra.IsNull{Arg: col(1)},
		&algebra.IsNull{Arg: col(2), Negate: true},
		&algebra.Arith{Op: types.OpMul, L: col(2), R: cf(3)},
		&algebra.Arith{Op: types.OpSub, L: col(4), R: ci(30)},
		&algebra.Arith{Op: types.OpDiv, L: col(1), R: ci(0)}, // runtime error
		&algebra.Arith{Op: types.OpAdd, L: ci(2), R: ci(3)},  // folded
		&algebra.Arith{Op: types.OpDiv, L: ci(1), R: ci(0)},  // folded, error on every evaluation
		&algebra.Like{L: col(3), R: cs("a%")},
		&algebra.Like{L: col(3), R: cs("_b_"), Negate: true},
		&algebra.InList{Arg: col(1), List: []algebra.Scalar{ci(1), ci(42), cnull()}},
		&algebra.InList{Arg: col(1), List: []algebra.Scalar{ci(7)}, Negate: true},
		&algebra.Case{
			Whens: []algebra.When{
				{Cond: cmp(algebra.CmpGt, col(1), ci(0)), Then: cs("pos")},
				{Cond: cmp(algebra.CmpLt, col(1), ci(0)), Then: cs("neg")},
			},
			Else: cs("other"),
		},
		&algebra.Case{Whens: []algebra.When{
			{Cond: &algebra.IsNull{Arg: col(1)}, Then: col(2)},
		}},
		&algebra.Param{Idx: 0},
		&algebra.Param{Idx: 5}, // out of range: runtime error
		cmp(algebra.CmpGe, col(1), &algebra.Param{Idx: 0}),
	}
}

// vecMd names the nine column IDs for failure messages.
var vecMd = func() *algebra.Metadata {
	md := algebra.NewMetadata()
	for i := 1; i <= 9; i++ {
		md.AddColumn(fmt.Sprintf("c%d", i), types.Unknown)
	}
	return md
}()

var vecParams = []types.Datum{types.NewInt(2), types.NewFloat(0.5)}

// exprGen draws scalars by result type.
type exprGen struct{ r *rand.Rand }

func (g *exprGen) pick(n int) int { return g.r.Intn(n) }

// num draws a numeric expression.
func (g *exprGen) num(depth int) algebra.Scalar {
	if depth <= 0 {
		switch g.pick(10) {
		case 0:
			return colRef(1)
		case 1:
			return colRef(2)
		case 2:
			return colRef(5)
		case 3:
			return colRef(6)
		case 4:
			return colRef(7)
		case 5:
			return constI(int64(g.pick(7) - 2))
		case 6:
			return cf(float64(g.pick(9)-3) / 2)
		case 7:
			return &algebra.Param{Idx: g.pick(2)}
		case 8:
			return nullC()
		default:
			return colRef(1)
		}
	}
	switch g.pick(8) {
	case 0, 1, 2, 3:
		ops := []types.BinOp{types.OpAdd, types.OpSub, types.OpMul, types.OpDiv, types.OpMod}
		return &algebra.Arith{Op: ops[g.pick(len(ops))], L: g.num(depth - 1), R: g.num(depth - 1)}
	case 4:
		// CASE guard: divide only where the divisor is nonzero.
		x := g.num(depth - 1)
		c := &algebra.Case{Whens: []algebra.When{{
			Cond: cmp(algebra.CmpNe, x, constI(0)),
			Then: &algebra.Arith{Op: types.OpDiv, L: constI(10), R: x},
		}}}
		if g.pick(2) == 0 {
			c.Else = g.num(depth - 1)
		}
		return c
	case 5:
		c := &algebra.Case{}
		for i := 0; i <= g.pick(2); i++ {
			c.Whens = append(c.Whens, algebra.When{Cond: g.pred(depth - 1), Then: g.num(depth - 1)})
		}
		if g.pick(3) > 0 {
			c.Else = g.num(depth - 1)
		}
		return c
	case 6:
		return &algebra.Arith{Op: types.OpSub, L: g.date(depth - 1), R: g.date(depth - 1)}
	default:
		return g.num(0)
	}
}

func (g *exprGen) str() algebra.Scalar {
	switch g.pick(4) {
	case 0:
		return constS([]string{"", "a", "ab", "zz"}[g.pick(4)])
	case 1:
		return nullC()
	default:
		return colRef(3)
	}
}

func (g *exprGen) date(depth int) algebra.Scalar {
	if depth > 0 && g.pick(3) == 0 {
		op := types.OpAdd
		if g.pick(2) == 0 {
			op = types.OpSub
		}
		return &algebra.Arith{Op: op, L: g.date(depth - 1), R: constI(int64(g.pick(40)))}
	}
	if g.pick(3) == 0 {
		return &algebra.Const{Val: types.NewDate(int64(9000 + g.pick(60)))}
	}
	return colRef(4)
}

func (g *exprGen) cmpOp() algebra.CmpOp { return algebra.CmpOp(g.pick(6)) }

// pred draws a boolean expression.
func (g *exprGen) pred(depth int) algebra.Scalar {
	if depth <= 0 {
		switch g.pick(6) {
		case 0:
			return cmp(g.cmpOp(), g.num(0), g.num(0))
		case 1:
			return cmp(g.cmpOp(), g.str(), g.str())
		case 2:
			return cmp(g.cmpOp(), g.date(0), g.date(0))
		case 3:
			return &algebra.IsNull{Arg: g.num(0), Negate: g.pick(2) == 0}
		case 4:
			return &algebra.Like{L: g.str(), R: constS([]string{"a%", "%b", "_", "%"}[g.pick(4)]), Negate: g.pick(2) == 0}
		default:
			return cmp(g.cmpOp(), colRef(9), constI(1)) // unbound column
		}
	}
	switch g.pick(9) {
	case 0:
		return cmp(g.cmpOp(), g.num(depth-1), g.num(depth-1))
	case 1:
		n := 2 + g.pick(2)
		a := &algebra.And{}
		for i := 0; i < n; i++ {
			a.Args = append(a.Args, g.pred(depth-1))
		}
		return a
	case 2:
		o := &algebra.Or{}
		for i := 0; i < 2+g.pick(2); i++ {
			o.Args = append(o.Args, g.pred(depth-1))
		}
		return o
	case 3:
		return &algebra.Not{Arg: g.pred(depth - 1)}
	case 4:
		// Guarded division: x <> 0 and 10/x > 1.
		x := g.num(depth - 1)
		return &algebra.And{Args: []algebra.Scalar{
			cmp(algebra.CmpNe, x, constI(0)),
			cmp(algebra.CmpGt, &algebra.Arith{Op: types.OpDiv, L: constI(10), R: x}, constI(1)),
		}}
	case 5:
		in := &algebra.InList{Arg: g.num(depth - 1), Negate: g.pick(2) == 0}
		for i := 0; i < 1+g.pick(4); i++ {
			in.List = append(in.List, g.num(0))
		}
		return in
	case 6:
		// BETWEEN, in both lowerings of the algebrizer; half the time
		// over a bare column, the shape the range kernel fuses.
		x, lo, hi := g.num(depth-1), g.num(0), g.num(0)
		switch g.pick(6) {
		case 0:
			x = colRef([]algebra.ColID{1, 2, 5, 6}[g.pick(4)])
		case 1:
			x, lo, hi = colRef(3), g.str(), g.str()
		case 2:
			x, lo, hi = colRef(4), g.date(0), g.date(0)
		}
		if g.pick(3) == 0 {
			return &algebra.Or{Args: []algebra.Scalar{cmp(algebra.CmpLt, x, lo), cmp(algebra.CmpGt, x, hi)}}
		}
		loOp, hiOp := algebra.CmpGe, algebra.CmpLe
		if g.pick(3) == 0 {
			loOp = algebra.CmpGt
		}
		if g.pick(3) == 0 {
			hiOp = algebra.CmpLt
		}
		return &algebra.And{Args: []algebra.Scalar{cmp(loOp, x, lo), cmp(hiOp, x, hi)}}
	case 7:
		in := &algebra.InList{Arg: g.str(), Negate: g.pick(2) == 0}
		for i := 0; i < 1+g.pick(3); i++ {
			in.List = append(in.List, g.str())
		}
		return in
	default:
		return g.pred(0)
	}
}

// expr draws an expression of any type.
func (g *exprGen) expr() algebra.Scalar {
	switch g.pick(6) {
	case 0, 1:
		return g.num(1 + g.pick(3))
	case 2, 3:
		return g.pred(1 + g.pick(3))
	case 4:
		return g.date(2)
	default:
		return g.str()
	}
}

// batch draws n rows of the property layout; one batch in three is
// NULL-free, as stored TPC-H columns are.
func (g *exprGen) batch(n int) []types.Row {
	nullFree := g.pick(3) == 0
	maybeNull := func(d types.Datum) types.Datum {
		if !nullFree && g.pick(6) == 0 {
			return types.Null(d.Kind())
		}
		return d
	}
	rows := make([]types.Row, n)
	for i := range rows {
		mixed := types.NewInt(int64(g.pick(5)))
		if g.pick(2) == 0 {
			mixed = types.NewFloat(float64(g.pick(5)) + 0.5)
		}
		rows[i] = types.Row{
			maybeNull(types.NewInt(int64(g.pick(9) - 4))),
			maybeNull(types.NewFloat(float64(g.pick(13)-6) / 4)),
			maybeNull(types.NewString([]string{"", "a", "ab", "b", "zz"}[g.pick(5)])),
			maybeNull(types.NewDate(int64(9000 + g.pick(60)))),
			maybeNull(types.NewInt(int64(g.pick(3)))),
			maybeNull(mixed),
		}
	}
	return rows
}

// outer draws the environment the batch-invariant columns read, after
// the expression, batch and selection, so a seed's expression and batch
// stay what they were. The values come from the batch's column
// generators. Column 7, read in numeric positions, takes one of the
// numeric columns' values: an Int, a Float, a zero divisor, the
// Int/Float mix, or a NULL. Half the time some layout columns also move
// out of the batch into a left row, strings and dates included. It
// returns the batch's layout and the Env.
func (g *exprGen) outer() (map[algebra.ColID]int, Env) {
	left := g.batch(1)[0]
	env := &RowEnv{Row: left, Ords: map[algebra.ColID]int{},
		Outer: MapEnv{7: left[[]int{0, 1, 4, 5}[g.pick(4)]]}}
	layout := map[algebra.ColID]int{}
	moved := g.pick(2) == 0
	for c := algebra.ColID(1); c <= 6; c++ {
		if moved && g.pick(3) == 0 {
			env.Ords[c] = vecLayout[c]
		} else {
			layout[c] = vecLayout[c]
		}
	}
	return layout, env
}

// selection draws an ascending subset of [0, n).
func (g *exprGen) selection(n int) []int {
	sel := []int{}
	keep := 1 + g.pick(4)
	for i := 0; i < n; i++ {
		if g.pick(4) < keep {
			sel = append(sel, i)
		}
	}
	return sel
}

func sameDatum(a, b types.Datum) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case types.Float:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case types.String:
		return a.Str() == b.Str()
	default:
		return a.Int() == b.Int()
	}
}

type rowResult struct {
	d   types.Datum
	err error
}

func (r rowResult) String() string {
	if r.err != nil {
		return "error(" + r.err.Error() + ")"
	}
	return r.d.String()
}

func sameResult(a, b rowResult) bool {
	if a.err != nil || b.err != nil {
		return a.err != nil && b.err != nil && a.err.Error() == b.err.Error()
	}
	return sameDatum(a.d, b.d)
}

// checkVecEquivalence asserts the property for one expression over one
// batch of the given layout and selection, with outer as the frame's
// outer Env.
func checkVecEquivalence(t *testing.T, expr algebra.Scalar, rows []types.Row, sel []int, layout map[algebra.ColID]int, outer Env) {
	t.Helper()
	ev := &Evaluator{Params: vecParams}
	desc := func() string { return algebra.FormatScalar(vecMd, expr) }
	env := func(ri int) Env { return &RowEnv{Row: rows[ri], Ords: layout, Outer: outer} }

	// The interpreter, row by row.
	want := make([]rowResult, len(rows))
	var failing []int
	for _, ri := range sel {
		d, err := ev.Eval(expr, env(ri))
		want[ri] = rowResult{d, err}
		if err != nil {
			failing = append(failing, ri)
		}
	}

	// Vector over the whole selection.
	comp := &Compiler{Ev: ev, Ords: layout}
	vx := comp.CompileVec(expr)
	var f VecFrame
	f.Reset(rows, outer)
	v, err := vx.Eval(&f, append([]int(nil), sel...))
	switch {
	case err != nil:
		matched := false
		for _, ri := range failing {
			matched = matched || want[ri].err.Error() == err.Error()
		}
		if !matched {
			t.Fatalf("%s: vector error %q is no selected row's error (failing rows %v)", desc(), err, failing)
		}
	case len(failing) > 0:
		t.Fatalf("%s: vector succeeded but row %d fails with %v", desc(), failing[0], want[failing[0]].err)
	default:
		for _, ri := range sel {
			if got := (rowResult{d: v.Datum(ri)}); !sameResult(want[ri], got) {
				t.Fatalf("%s row %d %v: interpreter %v, vector %v", desc(), ri, rows[ri], want[ri], got)
			}
		}
	}

	// Vector one row at a time: the exact datum or error of that row,
	// reusing the compiled kernels across "batches".
	for _, ri := range sel {
		f.Reset(rows, outer)
		v, err := vx.Eval(&f, []int{ri})
		got := rowResult{err: err}
		if err == nil {
			got.d = v.Datum(ri)
		}
		if !sameResult(want[ri], got) {
			t.Fatalf("%s row %d %v alone: interpreter %v, vector %v", desc(), ri, rows[ri], want[ri], got)
		}
	}

	// Predicate position: Filter keeps exactly the TRUE rows.
	if len(failing) == 0 {
		vp := (&Compiler{Ev: ev, Ords: layout}).CompileVecPred(expr)
		f.Reset(rows, outer)
		kept, err := vp.Filter(&f, append([]int(nil), sel...))
		if err != nil {
			t.Fatalf("%s: Filter: %v", desc(), err)
		}
		var wantKept []int
		for _, ri := range sel {
			if DatumTri(want[ri].d) == types.TriTrue {
				wantKept = append(wantKept, ri)
			}
		}
		if fmt.Sprint(kept) != fmt.Sprint(wantKept) {
			t.Fatalf("%s: Filter kept %v, want %v", desc(), kept, wantKept)
		}

		// Conjunct-at-a-time filtering agrees with the interpreter applied
		// conjunct by conjunct whenever neither raises an error.
		vconjs := (&Compiler{Ev: ev, Ords: layout}).CompileVecConjuncts(expr)
		wantKept = wantKept[:0]
		interpErr := false
		for _, ri := range sel {
			pass := true
			for _, cj := range algebra.Conjuncts(expr) {
				tv, err := ev.EvalBool(cj, env(ri))
				if err != nil {
					interpErr = true
				}
				if tv != types.TriTrue {
					pass = false
					break
				}
			}
			if pass {
				wantKept = append(wantKept, ri)
			}
		}
		f.Reset(rows, outer)
		kept = append([]int(nil), sel...)
		for _, vc := range vconjs {
			if kept, err = vc.Filter(&f, kept); err != nil {
				break
			}
		}
		if !interpErr && err == nil && fmt.Sprint(kept) != fmt.Sprint(wantKept) {
			t.Fatalf("%s: conjunct filter kept %v, want %v", desc(), kept, wantKept)
		}
	}
}

// checkSeed runs the property for the expression, batch and outer
// environment drawn from one seed.
func checkSeed(t *testing.T, seed int64) {
	t.Helper()
	g := &exprGen{r: rand.New(rand.NewSource(seed))}
	expr := g.expr()
	rows := g.batch(g.pick(48))
	sel := g.selection(len(rows))
	layout, outer := g.outer()
	checkVecEquivalence(t, expr, rows, sel, layout, outer)
}

func TestVecMatchesInterpreter(t *testing.T) {
	for seed := int64(0); seed < 4000; seed++ {
		checkSeed(t, seed)
	}
}

// TestVecFixedShapes runs the property over hand-written shapes (every
// node type, NULL operands, folded constants, the unbound parameter)
// on hand-written rows.
func TestVecFixedShapes(t *testing.T) {
	ev := &Evaluator{Params: []types.Datum{types.NewInt(10)}}
	ords := testLayout()
	outer := MapEnv{7: types.NewString("outer")}
	rows := testRows()
	for xi, expr := range testExprs() {
		vx := (&Compiler{Ev: ev, Ords: ords}).CompileVec(expr)
		var f VecFrame
		for ri := range rows {
			want, wantErr := ev.Eval(expr, &RowEnv{Ords: ords, Row: rows[ri], Outer: outer})
			f.Reset(rows, outer)
			v, err := vx.Eval(&f, []int{ri})
			got := rowResult{err: err}
			if err == nil {
				got.d = v.Datum(ri)
			}
			if !sameResult(rowResult{want, wantErr}, got) {
				t.Errorf("expr %d row %d: interpreter %v, vector %v", xi, ri, rowResult{want, wantErr}, got)
			}
		}
	}
}

// TestVecSharedSubexpression checks that identical arithmetic subtrees
// compile to one kernel and that its cached result is only served
// within one batch and entry selection.
func TestVecSharedSubexpression(t *testing.T) {
	ev := &Evaluator{}
	comp := &Compiler{Ev: ev, Ords: vecLayout}
	disc := func() algebra.Scalar {
		return &algebra.Arith{Op: types.OpMul, L: colRef(2),
			R: &algebra.Arith{Op: types.OpSub, L: constI(1), R: colRef(1)}}
	}
	a := comp.CompileVec(disc())
	b := comp.CompileVec(&algebra.Arith{Op: types.OpAdd, L: disc(), R: colRef(2)})
	if a.n != b.n.(*arithNode).l {
		t.Fatal("identical subtrees compiled to different kernels")
	}
	g := &exprGen{r: rand.New(rand.NewSource(7))}
	var f VecFrame
	for round := 0; round < 3; round++ {
		rows := g.batch(20)
		sel := g.selection(len(rows))
		f.Reset(rows, nil)
		for _, x := range []struct {
			vx   *VecExpr
			expr algebra.Scalar
		}{{a, disc()}, {b, &algebra.Arith{Op: types.OpAdd, L: disc(), R: colRef(2)}}} {
			v, err := x.vx.Eval(&f, sel)
			if err != nil {
				t.Fatal(err)
			}
			for _, ri := range sel {
				want, _ := ev.Eval(x.expr, &RowEnv{Ords: vecLayout, Row: rows[ri]})
				if !sameDatum(want, v.Datum(ri)) {
					t.Fatalf("round %d row %d: want %v got %v", round, ri, want, v.Datum(ri))
				}
			}
		}
	}
}

// FuzzVecEval is the property over fuzzer-chosen seeds; the corpus
// seeds are those of the property test.
func FuzzVecEval(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkSeed(t, seed) })
}
