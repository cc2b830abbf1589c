package eval

import (
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// testLayout is the row layout used by the compiled side: columns 1..4
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

// colRef/constI/constS/nullC/cmp come from eval_test.go.
var (
	col   = colRef
	ci    = constI
	cs    = constS
	cnull = nullC
)

func cf(v float64) algebra.Scalar { return &algebra.Const{Val: types.NewFloat(v)} }

// testExprs enumerates scalar shapes across every node type the
// compiler handles, including the specialized fast paths (col-const,
// col-col, const-col) and NULL operands.
func testExprs() []algebra.Scalar {
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

// TestCompiledMatchesInterpreter evaluates every test expression both
// ways over every test row and requires identical datums, truth
// values, and error presence.
func TestCompiledMatchesInterpreter(t *testing.T) {
	ev := &Evaluator{Params: []types.Datum{types.NewInt(10)}}
	ords := testLayout()
	outer := MapEnv{7: types.NewString("outer")}
	comp := &Compiler{Ev: ev, Ords: ords}

	for xi, expr := range testExprs() {
		cd := comp.Compile(expr)
		cp := comp.CompilePred(expr)
		for ri, row := range testRows() {
			env := &layoutEnv{ords: ords, row: row, outer: outer}
			fr := &Frame{Row: row, Outer: outer}

			want, wantErr := ev.Eval(expr, env)
			got, gotErr := cd(fr)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("expr %d row %d: err mismatch interp=%v compiled=%v", xi, ri, wantErr, gotErr)
			}
			if wantErr == nil && want.String() != got.String() {
				t.Errorf("expr %d row %d: interp=%s compiled=%s", xi, ri, want, got)
			}

			wantB, wantBErr := ev.EvalBool(expr, env)
			gotB, gotBErr := cp(fr)
			if (wantBErr != nil) != (gotBErr != nil) {
				t.Fatalf("expr %d row %d: pred err mismatch interp=%v compiled=%v", xi, ri, wantBErr, gotBErr)
			}
			if wantBErr == nil && wantB != gotB {
				t.Errorf("expr %d row %d: pred interp=%s compiled=%s", xi, ri, wantB, gotB)
			}
		}
	}
}

// layoutEnv mirrors the executor's rowEnv for the interpreted side.
type layoutEnv struct {
	ords  map[algebra.ColID]int
	row   types.Row
	outer MapEnv
}

func (e *layoutEnv) Value(c algebra.ColID) (types.Datum, bool) {
	if i, ok := e.ords[c]; ok {
		return e.row[i], true
	}
	d, ok := e.outer[c]
	return d, ok
}

// closureConjuncts compiles each top-level conjunct of s to its own
// closure: the per-row oracle for conjunct-at-a-time vector filtering.
func closureConjuncts(c *Compiler, s algebra.Scalar) []CompiledPred {
	cs := algebra.Conjuncts(s)
	out := make([]CompiledPred, len(cs))
	for i, cj := range cs {
		out[i] = c.CompilePred(cj)
	}
	return out
}

// TestCompileConjuncts checks that conjunct-at-a-time filtering over a
// shrinking candidate set keeps AND's left-to-right short-circuit: a
// row failing an early conjunct never reaches a later, erroring one.
func TestCompileConjuncts(t *testing.T) {
	ev := &Evaluator{}
	comp := &Compiler{Ev: ev, Ords: testLayout()}
	pred := &algebra.And{Args: []algebra.Scalar{
		cmp(algebra.CmpGt, col(1), ci(0)),
		cmp(algebra.CmpGt, &algebra.Arith{Op: types.OpDiv, L: ci(10), R: col(1)}, ci(3)),
	}}
	conjs := closureConjuncts(comp, pred)
	if len(conjs) != 2 {
		t.Fatalf("want 2 conjuncts, got %d", len(conjs))
	}
	// Row with col1 = 0 fails conjunct 1; conjunct 2 would divide by
	// zero and must not run for it.
	rows := []types.Row{
		{types.NewInt(2), types.NewFloat(0), types.NewString(""), types.NullUnknown},
		{types.NewInt(0), types.NewFloat(0), types.NewString(""), types.NullUnknown},
		{types.NewInt(1), types.NewFloat(0), types.NewString(""), types.NullUnknown},
	}
	var pass []int
	for ri, row := range rows {
		fr := &Frame{Row: row}
		ok := true
		for _, cj := range conjs {
			v, err := cj(fr)
			if err != nil {
				t.Fatalf("row %d: unexpected error %v", ri, err)
			}
			if v != types.TriTrue {
				ok = false
				break
			}
		}
		if ok {
			pass = append(pass, ri)
		}
	}
	if len(pass) != 2 || pass[0] != 0 || pass[1] != 2 {
		t.Fatalf("want rows 0 and 2 to pass, got %v", pass)
	}
	if len(closureConjuncts(comp, nil)) != 0 {
		t.Fatal("nil predicate should compile to zero conjuncts")
	}
}

// TestCompiledConstFoldError checks that an erroring constant subtree
// folds to a closure reporting the interpreter's error at run time.
func TestCompiledConstFoldError(t *testing.T) {
	ev := &Evaluator{}
	comp := &Compiler{Ev: ev, Ords: testLayout()}
	expr := &algebra.Arith{Op: types.OpDiv, L: ci(1), R: ci(0)}
	cd := comp.Compile(expr)
	if _, err := cd(&Frame{}); err == nil {
		t.Fatal("want division-by-zero error from folded constant")
	}
}

// TestCompiledJoinFrame exercises the two-row layout used by join
// predicates.
func TestCompiledJoinFrame(t *testing.T) {
	ev := &Evaluator{}
	comp := &Compiler{
		Ev:    ev,
		Ords:  map[algebra.ColID]int{1: 0},
		Ords2: map[algebra.ColID]int{2: 0},
	}
	pred := cmp(algebra.CmpEq, col(1), col(2))
	cp := comp.CompilePred(pred)
	fr := &Frame{Row: types.Row{types.NewInt(5)}, Row2: types.Row{types.NewInt(5)}}
	if v, err := cp(fr); err != nil || v != types.TriTrue {
		t.Fatalf("want true, got %v err=%v", v, err)
	}
	fr.Row2 = types.Row{types.NewInt(6)}
	if v, err := cp(fr); err != nil || v != types.TriFalse {
		t.Fatalf("want false, got %v err=%v", v, err)
	}
	fr.Row2 = types.Row{types.Null(types.Int)}
	if v, err := cp(fr); err != nil || v != types.TriNull {
		t.Fatalf("want null, got %v err=%v", v, err)
	}
}
