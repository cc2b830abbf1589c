package eval

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

var ev = &Evaluator{}

func mustEval(t *testing.T, s algebra.Scalar, env Env) types.Datum {
	t.Helper()
	d, err := ev.Eval(s, env)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return d
}

func colRef(c algebra.ColID) algebra.Scalar { return &algebra.ColRef{Col: c} }
func constI(v int64) algebra.Scalar         { return &algebra.Const{Val: types.NewInt(v)} }
func constS(v string) algebra.Scalar        { return &algebra.Const{Val: types.NewString(v)} }
func nullC() algebra.Scalar                 { return &algebra.Const{Val: types.NullUnknown} }
func cmp(op algebra.CmpOp, l, r algebra.Scalar) algebra.Scalar {
	return &algebra.Cmp{Op: op, L: l, R: r}
}

func TestColRefAndUnbound(t *testing.T) {
	env := MapEnv{1: types.NewInt(7)}
	if d := mustEval(t, colRef(1), env); d.Int() != 7 {
		t.Errorf("col = %v", d)
	}
	if _, err := ev.Eval(colRef(2), env); err == nil {
		t.Error("unbound column accepted")
	}
}

func TestComparisonNullPropagation(t *testing.T) {
	env := MapEnv{}
	if d := mustEval(t, cmp(algebra.CmpLt, constI(1), constI(2)), env); !d.Bool() {
		t.Error("1 < 2")
	}
	if d := mustEval(t, cmp(algebra.CmpLt, nullC(), constI(2)), env); !d.IsNull() {
		t.Error("NULL < 2 must be NULL")
	}
	if d := mustEval(t, cmp(algebra.CmpEq, nullC(), nullC()), env); !d.IsNull() {
		t.Error("NULL = NULL must be NULL")
	}
}

func TestLogicShortCircuitAnd3VL(t *testing.T) {
	env := MapEnv{}
	f := cmp(algebra.CmpEq, constI(0), constI(1)) // FALSE
	tr := cmp(algebra.CmpEq, constI(1), constI(1))
	nl := cmp(algebra.CmpEq, nullC(), constI(1)) // NULL

	and := &algebra.And{Args: []algebra.Scalar{f, nl}}
	if d := mustEval(t, and, env); d.IsNull() || d.Bool() {
		t.Error("FALSE AND NULL = FALSE")
	}
	and2 := &algebra.And{Args: []algebra.Scalar{tr, nl}}
	if d := mustEval(t, and2, env); !d.IsNull() {
		t.Error("TRUE AND NULL = NULL")
	}
	or := &algebra.Or{Args: []algebra.Scalar{tr, nl}}
	if d := mustEval(t, or, env); d.IsNull() || !d.Bool() {
		t.Error("TRUE OR NULL = TRUE")
	}
	or2 := &algebra.Or{Args: []algebra.Scalar{f, nl}}
	if d := mustEval(t, or2, env); !d.IsNull() {
		t.Error("FALSE OR NULL = NULL")
	}
	not := &algebra.Not{Arg: nl}
	if d := mustEval(t, not, env); !d.IsNull() {
		t.Error("NOT NULL = NULL")
	}
}

func TestIsNullNeverNull(t *testing.T) {
	env := MapEnv{}
	if d := mustEval(t, &algebra.IsNull{Arg: nullC()}, env); !d.Bool() {
		t.Error("NULL IS NULL = TRUE")
	}
	if d := mustEval(t, &algebra.IsNull{Arg: constI(1), Negate: true}, env); !d.Bool() {
		t.Error("1 IS NOT NULL = TRUE")
	}
}

func TestInListSemantics(t *testing.T) {
	env := MapEnv{}
	in := &algebra.InList{Arg: constI(2), List: []algebra.Scalar{constI(1), constI(2)}}
	if d := mustEval(t, in, env); !d.Bool() {
		t.Error("2 IN (1,2)")
	}
	// No match but NULL present: result is NULL.
	in2 := &algebra.InList{Arg: constI(3), List: []algebra.Scalar{constI(1), nullC()}}
	if d := mustEval(t, in2, env); !d.IsNull() {
		t.Errorf("3 IN (1, NULL) = %v, want NULL", d)
	}
	// NOT IN of the NULL case is also NULL (not TRUE!).
	in3 := &algebra.InList{Arg: constI(3), List: []algebra.Scalar{constI(1), nullC()}, Negate: true}
	if d := mustEval(t, in3, env); !d.IsNull() {
		t.Errorf("3 NOT IN (1, NULL) = %v, want NULL", d)
	}
}

func TestCaseEvaluation(t *testing.T) {
	env := MapEnv{1: types.NewInt(5)}
	c := &algebra.Case{
		Whens: []algebra.When{
			{Cond: cmp(algebra.CmpLt, colRef(1), constI(0)), Then: constS("neg")},
			{Cond: cmp(algebra.CmpEq, colRef(1), constI(5)), Then: constS("five")},
		},
		Else: constS("other"),
	}
	if d := mustEval(t, c, env); d.Str() != "five" {
		t.Errorf("case = %v", d)
	}
	// No match, no else: NULL.
	c2 := &algebra.Case{Whens: []algebra.When{
		{Cond: cmp(algebra.CmpLt, colRef(1), constI(0)), Then: constS("neg")},
	}}
	if d := mustEval(t, c2, env); !d.IsNull() {
		t.Errorf("case no-match = %v", d)
	}
	// NULL condition counts as not-matched.
	c3 := &algebra.Case{Whens: []algebra.When{
		{Cond: cmp(algebra.CmpEq, nullC(), constI(1)), Then: constS("x")},
	}, Else: constS("else")}
	if d := mustEval(t, c3, env); d.Str() != "else" {
		t.Errorf("case NULL cond = %v", d)
	}
}

func TestArithErrorsPropagate(t *testing.T) {
	env := MapEnv{}
	div := &algebra.Arith{Op: types.OpDiv, L: constI(1), R: constI(0)}
	if _, err := ev.Eval(div, env); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("div by zero: %v", err)
	}
}

func TestSubqueryWithoutHandlerErrors(t *testing.T) {
	env := MapEnv{}
	sub := &algebra.Exists{Input: &algebra.Values{}}
	if _, err := ev.Eval(sub, env); err == nil || !strings.Contains(err.Error(), "unexpected relational subexpression") {
		t.Errorf("relational scalar: %v", err)
	}
}

func TestLikeEval(t *testing.T) {
	env := MapEnv{}
	l := &algebra.Like{L: constS("MED BOX"), R: constS("MED%")}
	if d := mustEval(t, l, env); !d.Bool() {
		t.Error("LIKE failed")
	}
	nl := &algebra.Like{L: constS("MED BOX"), R: constS("LG%"), Negate: true}
	if d := mustEval(t, nl, env); !d.Bool() {
		t.Error("NOT LIKE failed")
	}
}

// TestEvalBoolMatchesTri: EvalBool agrees with DatumTri of Eval.
func TestEvalBoolMatchesTri(t *testing.T) {
	gen := func(r *rand.Rand) algebra.Scalar {
		mk := func() algebra.Scalar {
			switch r.Intn(3) {
			case 0:
				return constI(int64(r.Intn(3)))
			case 1:
				return nullC()
			default:
				return constI(1)
			}
		}
		return cmp(algebra.CmpOp(r.Intn(6)), mk(), mk())
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		s := gen(r)
		d, err := ev.Eval(s, MapEnv{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ev.EvalBool(s, MapEnv{})
		if err != nil {
			t.Fatal(err)
		}
		if DatumTri(d) != b {
			t.Fatalf("EvalBool mismatch for %v", s)
		}
	}
}

// Property: De Morgan holds under the evaluator for random bool pairs
// including NULLs.
func TestDeMorganUnderEvaluator(t *testing.T) {
	tri := func(n uint8) algebra.Scalar {
		switch n % 3 {
		case 0:
			return cmp(algebra.CmpEq, constI(1), constI(1)) // TRUE
		case 1:
			return cmp(algebra.CmpEq, constI(0), constI(1)) // FALSE
		default:
			return cmp(algebra.CmpEq, nullC(), constI(1)) // NULL
		}
	}
	f := func(a, b uint8) bool {
		x, y := tri(a), tri(b)
		lhs := &algebra.Not{Arg: &algebra.And{Args: []algebra.Scalar{x, y}}}
		rhs := &algebra.Or{Args: []algebra.Scalar{&algebra.Not{Arg: x}, &algebra.Not{Arg: y}}}
		dl, err1 := ev.Eval(lhs, MapEnv{})
		dr, err2 := ev.Eval(rhs, MapEnv{})
		if err1 != nil || err2 != nil {
			return false
		}
		return DatumTri(dl) == DatumTri(dr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
