// Package eval evaluates algebra scalar expressions under SQL
// three-valued logic. It has one evaluator, in two forms over the same
// semantics. Evaluator.Eval interprets a scalar over an environment
// binding column IDs to datums, one row at a time: the normalizer
// (null-rejection analysis evaluates predicates on synthesized rows),
// constant folding, index seek keys and Values rows use it. The vector
// kernels of vec.go (Compiler.CompileVec) evaluate a scalar over the
// selected rows of a batch, column at a time: every operator predicate,
// projection item and aggregate argument of the executor runs on them,
// and anything without a kernel falls back to Eval per row.
package eval

import (
	"fmt"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// Env supplies column values during evaluation.
type Env interface {
	// Value returns the datum bound to col. ok=false means the column
	// is not bound (an evaluation error for well-formed plans).
	Value(col algebra.ColID) (types.Datum, bool)
}

// MapEnv is an Env over a map.
type MapEnv map[algebra.ColID]types.Datum

// Value implements Env.
func (m MapEnv) Value(c algebra.ColID) (types.Datum, bool) {
	d, ok := m[c]
	return d, ok
}

// RowEnv is an Env over one positional row of a known layout: columns
// in Ords read Row, every other column falls through to Outer.
type RowEnv struct {
	Row   types.Row
	Ords  map[algebra.ColID]int
	Outer Env
}

// Value implements Env.
func (e *RowEnv) Value(c algebra.ColID) (types.Datum, bool) {
	if i, ok := e.Ords[c]; ok {
		return e.Row[i], true
	}
	if e.Outer != nil {
		return e.Outer.Value(c)
	}
	return types.NullUnknown, false
}

// Evaluator evaluates scalars. Relational subexpressions (Subquery,
// Exists, Quantified) are an error: normalization removes them before
// anything is evaluated.
type Evaluator struct {
	// Params binds parameter slots (algebra.Param) by index. An
	// out-of-range slot is an evaluation error; analysis-time
	// evaluators (folding, null-rejection) deliberately leave Params
	// nil so parameter-dependent decisions are skipped and plan
	// structure stays value-independent.
	Params []types.Datum
}

// Eval computes the value of s under env.
func (ev *Evaluator) Eval(s algebra.Scalar, env Env) (types.Datum, error) {
	switch t := s.(type) {
	case *algebra.ColRef:
		d, ok := env.Value(t.Col)
		if !ok {
			return types.NullUnknown, fmt.Errorf("eval: unbound column %d", t.Col)
		}
		return d, nil

	case *algebra.Const:
		return t.Val, nil

	case *algebra.Param:
		if t.Idx < 0 || t.Idx >= len(ev.Params) {
			return types.NullUnknown, fmt.Errorf("eval: unbound parameter $%d", t.Idx+1)
		}
		return ev.Params[t.Idx], nil

	case *algebra.Cmp:
		l, err := ev.Eval(t.L, env)
		if err != nil {
			return types.NullUnknown, err
		}
		r, err := ev.Eval(t.R, env)
		if err != nil {
			return types.NullUnknown, err
		}
		return triDatum(types.CompareSQL(l, r, t.Op.Test)), nil

	case *algebra.And:
		acc := types.TriTrue
		for _, a := range t.Args {
			v, err := ev.EvalBool(a, env)
			if err != nil {
				return types.NullUnknown, err
			}
			acc = acc.And(v)
			if acc == types.TriFalse {
				break
			}
		}
		return triDatum(acc), nil

	case *algebra.Or:
		acc := types.TriFalse
		for _, a := range t.Args {
			v, err := ev.EvalBool(a, env)
			if err != nil {
				return types.NullUnknown, err
			}
			acc = acc.Or(v)
			if acc == types.TriTrue {
				break
			}
		}
		return triDatum(acc), nil

	case *algebra.Not:
		v, err := ev.EvalBool(t.Arg, env)
		if err != nil {
			return types.NullUnknown, err
		}
		return triDatum(v.Not()), nil

	case *algebra.Arith:
		l, err := ev.Eval(t.L, env)
		if err != nil {
			return types.NullUnknown, err
		}
		r, err := ev.Eval(t.R, env)
		if err != nil {
			return types.NullUnknown, err
		}
		return types.Arith(t.Op, l, r)

	case *algebra.IsNull:
		v, err := ev.Eval(t.Arg, env)
		if err != nil {
			return types.NullUnknown, err
		}
		res := v.IsNull()
		if t.Negate {
			res = !res
		}
		return types.NewBool(res), nil

	case *algebra.Like:
		l, err := ev.Eval(t.L, env)
		if err != nil {
			return types.NullUnknown, err
		}
		r, err := ev.Eval(t.R, env)
		if err != nil {
			return types.NullUnknown, err
		}
		tv := types.Like(l, r)
		if t.Negate {
			tv = tv.Not()
		}
		return triDatum(tv), nil

	case *algebra.InList:
		arg, err := ev.Eval(t.Arg, env)
		if err != nil {
			return types.NullUnknown, err
		}
		// SQL IN list: TRUE if any equal; NULL if no match but a NULL
		// operand was seen; FALSE otherwise.
		acc := types.TriFalse
		for _, le := range t.List {
			v, err := ev.Eval(le, env)
			if err != nil {
				return types.NullUnknown, err
			}
			acc = acc.Or(types.CompareSQL(arg, v, algebra.CmpEq.Test))
			if acc == types.TriTrue {
				break
			}
		}
		if t.Negate {
			acc = acc.Not()
		}
		return triDatum(acc), nil

	case *algebra.Case:
		for _, w := range t.Whens {
			c, err := ev.EvalBool(w.Cond, env)
			if err != nil {
				return types.NullUnknown, err
			}
			if c == types.TriTrue {
				return ev.Eval(w.Then, env)
			}
		}
		if t.Else != nil {
			return ev.Eval(t.Else, env)
		}
		return types.NullUnknown, nil

	case *algebra.Subquery, *algebra.Exists, *algebra.Quantified:
		return types.NullUnknown, fmt.Errorf("eval: unexpected relational subexpression %T (normalization should have removed it)", s)
	}
	return types.NullUnknown, fmt.Errorf("eval: unhandled scalar %T", s)
}

// EvalBool evaluates s as a predicate under 3VL.
func (ev *Evaluator) EvalBool(s algebra.Scalar, env Env) (types.TriBool, error) {
	d, err := ev.Eval(s, env)
	if err != nil {
		return types.TriNull, err
	}
	return DatumTri(d), nil
}

// DatumTri converts a (possibly NULL) boolean datum to TriBool. A
// non-NULL value of any other kind is TRUE, zero and the empty string
// included; well-typed plans do not reach that case.
func DatumTri(d types.Datum) types.TriBool {
	if d.IsNull() {
		return types.TriNull
	}
	if d.Kind() == types.Bool {
		return types.TriOf(d.Bool())
	}
	return types.TriTrue
}

func triDatum(t types.TriBool) types.Datum {
	switch t {
	case types.TriTrue:
		return types.NewBool(true)
	case types.TriFalse:
		return types.NewBool(false)
	default:
		return types.Null(types.Bool)
	}
}
