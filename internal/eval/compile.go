package eval

// Expression compilation: a scalar tree is translated once, at plan
// compile time, into a closure tree evaluated per row — eliminating
// the per-row type switch and environment map lookups of the
// interpreting Evaluator. Column references whose layout is known at
// compile time resolve to row ordinals (a slice index at run time);
// everything else falls back to the Frame's outer environment, which
// carries correlation parameters.
//
// Compiled evaluation is semantically identical to Eval: SQL
// three-valued logic, left-to-right short-circuit of AND/OR/IN/CASE,
// and the same run-time errors (unbound columns, unbound parameter
// slots, division by zero). Constant subtrees are folded at compile
// time; a folding error is captured and re-reported on every
// evaluation, matching the interpreter's per-row error.

import (
	"fmt"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// Frame is the environment compiled expressions evaluate against: one
// or two positional rows (their column layouts are fixed at compile
// time) plus an optional outer Env for columns bound dynamically
// (correlation parameters installed by Apply).
type Frame struct {
	Row  types.Row
	Row2 types.Row // second row for join predicates (may stay nil)
	// Outer resolves columns not in either row layout.
	Outer Env
}

// Compiled is a scalar compiled to a closure producing a datum.
type Compiled func(fr *Frame) (types.Datum, error)

// CompiledPred is a predicate compiled to a closure producing a 3VL
// truth value.
type CompiledPred func(fr *Frame) (types.TriBool, error)

// Compiler translates scalars against a fixed column layout. Ords
// maps columns to Frame.Row ordinals, Ords2 (may be nil) to
// Frame.Row2. Ev supplies parameter slots and the subquery handler;
// the compiled closures read Ev.Params at evaluation time, so
// re-binding parameters between executions is visible without
// recompiling.
type Compiler struct {
	Ev    *Evaluator
	Ords  map[algebra.ColID]int
	Ords2 map[algebra.ColID]int

	// shared lists the arithmetic subtrees CompileVec has compiled, so
	// identical subtrees compile to one kernel (see vec.go).
	shared []sharedArith
	// vecCols lists the row ordinals CompileVec kernels read.
	vecCols []int
}

// constExpr reports whether s can be folded at compile time: no
// column references, no parameter slots, no relational subexpressions.
func constExpr(s algebra.Scalar) bool {
	pure := true
	algebra.VisitScalar(s, func(n algebra.Scalar) {
		switch n.(type) {
		case *algebra.ColRef, *algebra.Param,
			*algebra.Subquery, *algebra.Exists, *algebra.Quantified:
			pure = false
		}
	})
	return pure
}

// colAccess resolves a column to a direct positional accessor when it
// is in a compiled layout.
func (c *Compiler) colAccess(col algebra.ColID) (func(fr *Frame) types.Datum, bool) {
	if o, ok := c.Ords[col]; ok {
		return func(fr *Frame) types.Datum { return fr.Row[o] }, true
	}
	if o, ok := c.Ords2[col]; ok {
		return func(fr *Frame) types.Datum { return fr.Row2[o] }, true
	}
	return nil, false
}

// Compile translates s into a datum-producing closure.
func (c *Compiler) Compile(s algebra.Scalar) Compiled {
	if constExpr(s) {
		d, err := c.Ev.Eval(s, MapEnv(nil))
		return func(*Frame) (types.Datum, error) { return d, err }
	}
	switch t := s.(type) {
	case *algebra.ColRef:
		// Direct ordinal closures, not a wrapped colAccess accessor:
		// column reads are the innermost operation of every compiled
		// expression and the extra indirection is measurable.
		if o, ok := c.Ords[t.Col]; ok {
			return func(fr *Frame) (types.Datum, error) { return fr.Row[o], nil }
		}
		if o, ok := c.Ords2[t.Col]; ok {
			return func(fr *Frame) (types.Datum, error) { return fr.Row2[o], nil }
		}
		col := t.Col
		return func(fr *Frame) (types.Datum, error) {
			if fr.Outer != nil {
				if d, ok := fr.Outer.Value(col); ok {
					return d, nil
				}
			}
			return types.NullUnknown, fmt.Errorf("eval: unbound column %d", col)
		}

	case *algebra.Const:
		d := t.Val
		return func(*Frame) (types.Datum, error) { return d, nil }

	case *algebra.Param:
		ev, idx := c.Ev, t.Idx
		return func(*Frame) (types.Datum, error) {
			if idx < 0 || idx >= len(ev.Params) {
				return types.NullUnknown, fmt.Errorf("eval: unbound parameter $%d", idx+1)
			}
			return ev.Params[idx], nil
		}

	case *algebra.Arith:
		return c.compileArith(t)

	case *algebra.Case:
		whens := make([]struct {
			cond CompiledPred
			then Compiled
		}, len(t.Whens))
		for i, w := range t.Whens {
			whens[i].cond = c.CompilePred(w.Cond)
			whens[i].then = c.Compile(w.Then)
		}
		var els Compiled
		if t.Else != nil {
			els = c.Compile(t.Else)
		}
		return func(fr *Frame) (types.Datum, error) {
			for i := range whens {
				v, err := whens[i].cond(fr)
				if err != nil {
					return types.NullUnknown, err
				}
				if v == types.TriTrue {
					return whens[i].then(fr)
				}
			}
			if els != nil {
				return els(fr)
			}
			return types.NullUnknown, nil
		}

	case *algebra.IsNull:
		arg := c.Compile(t.Arg)
		neg := t.Negate
		return func(fr *Frame) (types.Datum, error) {
			v, err := arg(fr)
			if err != nil {
				return types.NullUnknown, err
			}
			res := v.IsNull()
			if neg {
				res = !res
			}
			return types.NewBool(res), nil
		}

	case *algebra.Cmp, *algebra.And, *algebra.Or, *algebra.Not,
		*algebra.Like, *algebra.InList:
		p := c.CompilePred(s)
		return func(fr *Frame) (types.Datum, error) {
			v, err := p(fr)
			if err != nil {
				return types.NullUnknown, err
			}
			return triDatum(v), nil
		}

	case *algebra.Subquery, *algebra.Exists, *algebra.Quantified:
		// Relational subexpressions cannot be compiled positionally;
		// defer to the interpreter (and its OnSubquery handler or
		// canonical error) with the frame exposed as an Env.
		ev := c.Ev
		ords, ords2 := c.Ords, c.Ords2
		return func(fr *Frame) (types.Datum, error) {
			return ev.Eval(s, &frameEnv{fr: fr, ords: ords, ords2: ords2})
		}
	}
	err := fmt.Errorf("eval: unhandled scalar %T", s)
	return func(*Frame) (types.Datum, error) { return types.NullUnknown, err }
}

// compileArith specializes binary arithmetic per operator, with the
// Int×Int and numeric→Float cases — the shapes aggregate argument
// expressions produce — computed inline. NULL operands, date
// arithmetic, division by zero and type errors fall back to the
// generic types.Arith, which defines the semantics.
func (c *Compiler) compileArith(t *algebra.Arith) Compiled {
	l, r := c.Compile(t.L), c.Compile(t.R)
	op := t.Op

	switch op {
	case types.OpAdd:
		return func(fr *Frame) (types.Datum, error) {
			a, err := l(fr)
			if err != nil {
				return types.NullUnknown, err
			}
			b, err := r(fr)
			if err != nil {
				return types.NullUnknown, err
			}
			if !a.IsNull() && !b.IsNull() {
				if a.Kind() == types.Int && b.Kind() == types.Int {
					return types.NewInt(a.Int() + b.Int()), nil
				}
				if (a.Kind() == types.Int || a.Kind() == types.Float) && (b.Kind() == types.Int || b.Kind() == types.Float) {
					af, _ := a.AsFloat()
					bf, _ := b.AsFloat()
					return types.NewFloat(af + bf), nil
				}
			}
			return types.Arith(op, a, b)
		}
	case types.OpSub:
		return func(fr *Frame) (types.Datum, error) {
			a, err := l(fr)
			if err != nil {
				return types.NullUnknown, err
			}
			b, err := r(fr)
			if err != nil {
				return types.NullUnknown, err
			}
			if !a.IsNull() && !b.IsNull() {
				if a.Kind() == types.Int && b.Kind() == types.Int {
					return types.NewInt(a.Int() - b.Int()), nil
				}
				if (a.Kind() == types.Int || a.Kind() == types.Float) && (b.Kind() == types.Int || b.Kind() == types.Float) {
					af, _ := a.AsFloat()
					bf, _ := b.AsFloat()
					return types.NewFloat(af - bf), nil
				}
			}
			return types.Arith(op, a, b)
		}
	case types.OpMul:
		return func(fr *Frame) (types.Datum, error) {
			a, err := l(fr)
			if err != nil {
				return types.NullUnknown, err
			}
			b, err := r(fr)
			if err != nil {
				return types.NullUnknown, err
			}
			if !a.IsNull() && !b.IsNull() {
				if a.Kind() == types.Int && b.Kind() == types.Int {
					return types.NewInt(a.Int() * b.Int()), nil
				}
				if (a.Kind() == types.Int || a.Kind() == types.Float) && (b.Kind() == types.Int || b.Kind() == types.Float) {
					af, _ := a.AsFloat()
					bf, _ := b.AsFloat()
					return types.NewFloat(af * bf), nil
				}
			}
			return types.Arith(op, a, b)
		}
	case types.OpDiv:
		return func(fr *Frame) (types.Datum, error) {
			a, err := l(fr)
			if err != nil {
				return types.NullUnknown, err
			}
			b, err := r(fr)
			if err != nil {
				return types.NullUnknown, err
			}
			if !a.IsNull() && !b.IsNull() && (a.Kind() == types.Int || a.Kind() == types.Float) && (b.Kind() == types.Int || b.Kind() == types.Float) {
				if a.Kind() == types.Int && b.Kind() == types.Int {
					// Integer division keeps its own zero/truncation rules.
					return types.Arith(op, a, b)
				}
				bf, _ := b.AsFloat()
				if bf != 0 {
					af, _ := a.AsFloat()
					return types.NewFloat(af / bf), nil
				}
			}
			return types.Arith(op, a, b)
		}
	}
	return func(fr *Frame) (types.Datum, error) {
		a, err := l(fr)
		if err != nil {
			return types.NullUnknown, err
		}
		b, err := r(fr)
		if err != nil {
			return types.NullUnknown, err
		}
		return types.Arith(op, a, b)
	}
}

// CompilePred translates s into a 3VL predicate closure.
func (c *Compiler) CompilePred(s algebra.Scalar) CompiledPred {
	if constExpr(s) {
		v, err := c.Ev.EvalBool(s, MapEnv(nil))
		return func(*Frame) (types.TriBool, error) { return v, err }
	}
	switch t := s.(type) {
	case *algebra.Cmp:
		return c.compileCmp(t)

	case *algebra.And:
		args := make([]CompiledPred, len(t.Args))
		for i, a := range t.Args {
			args[i] = c.CompilePred(a)
		}
		return func(fr *Frame) (types.TriBool, error) {
			acc := types.TriTrue
			for _, a := range args {
				v, err := a(fr)
				if err != nil {
					return types.TriNull, err
				}
				acc = acc.And(v)
				if acc == types.TriFalse {
					break
				}
			}
			return acc, nil
		}

	case *algebra.Or:
		args := make([]CompiledPred, len(t.Args))
		for i, a := range t.Args {
			args[i] = c.CompilePred(a)
		}
		return func(fr *Frame) (types.TriBool, error) {
			acc := types.TriFalse
			for _, a := range args {
				v, err := a(fr)
				if err != nil {
					return types.TriNull, err
				}
				acc = acc.Or(v)
				if acc == types.TriTrue {
					break
				}
			}
			return acc, nil
		}

	case *algebra.Not:
		arg := c.CompilePred(t.Arg)
		return func(fr *Frame) (types.TriBool, error) {
			v, err := arg(fr)
			if err != nil {
				return types.TriNull, err
			}
			return v.Not(), nil
		}

	case *algebra.Like:
		l, r := c.Compile(t.L), c.Compile(t.R)
		neg := t.Negate
		return func(fr *Frame) (types.TriBool, error) {
			lv, err := l(fr)
			if err != nil {
				return types.TriNull, err
			}
			rv, err := r(fr)
			if err != nil {
				return types.TriNull, err
			}
			tv := types.Like(lv, rv)
			if neg {
				tv = tv.Not()
			}
			return tv, nil
		}

	case *algebra.InList:
		arg := c.Compile(t.Arg)
		list := make([]Compiled, len(t.List))
		for i, le := range t.List {
			list[i] = c.Compile(le)
		}
		eq := algebra.CmpEq.Test
		neg := t.Negate
		return func(fr *Frame) (types.TriBool, error) {
			av, err := arg(fr)
			if err != nil {
				return types.TriNull, err
			}
			acc := types.TriFalse
			for _, le := range list {
				v, err := le(fr)
				if err != nil {
					return types.TriNull, err
				}
				acc = acc.Or(types.CompareSQL(av, v, eq))
				if acc == types.TriTrue {
					break
				}
			}
			if neg {
				acc = acc.Not()
			}
			return acc, nil
		}
	}
	// Datum-producing nodes (ColRef, Param, Case, IsNull, Arith,
	// Subquery, ...) used in predicate position.
	d := c.Compile(s)
	return func(fr *Frame) (types.TriBool, error) {
		v, err := d(fr)
		if err != nil {
			return types.TriNull, err
		}
		return DatumTri(v), nil
	}
}

// compileCmp specializes comparisons: column-vs-constant and
// column-vs-column with compile-time layouts skip the operand closures
// entirely — the hot shape of scan filters and join residuals.
func (c *Compiler) compileCmp(t *algebra.Cmp) CompiledPred {
	test := t.Op.Test
	lcol, lok := t.L.(*algebra.ColRef)
	rcol, rok := t.R.(*algebra.ColRef)
	if lok && rok {
		if lget, ok := c.colAccess(lcol.Col); ok {
			if rget, ok := c.colAccess(rcol.Col); ok {
				return func(fr *Frame) (types.TriBool, error) {
					a, b := lget(fr), rget(fr)
					if a.IsNull() || b.IsNull() {
						return types.TriNull, nil
					}
					return types.TriOf(test(types.Compare(a, b))), nil
				}
			}
		}
	}
	if lok {
		if rconst, ok := t.R.(*algebra.Const); ok {
			if lget, ok := c.colAccess(lcol.Col); ok {
				if rconst.Val.IsNull() {
					// col op NULL is unknown for every row.
					return func(*Frame) (types.TriBool, error) { return types.TriNull, nil }
				}
				cv := rconst.Val
				return func(fr *Frame) (types.TriBool, error) {
					d := lget(fr)
					if d.IsNull() {
						return types.TriNull, nil
					}
					return types.TriOf(test(types.Compare(d, cv))), nil
				}
			}
		}
	}
	if rok {
		if lconst, ok := t.L.(*algebra.Const); ok {
			if rget, ok := c.colAccess(rcol.Col); ok {
				if lconst.Val.IsNull() {
					return func(*Frame) (types.TriBool, error) { return types.TriNull, nil }
				}
				cv := lconst.Val
				return func(fr *Frame) (types.TriBool, error) {
					d := rget(fr)
					if d.IsNull() {
						return types.TriNull, nil
					}
					return types.TriOf(test(types.Compare(cv, d))), nil
				}
			}
		}
	}
	l, r := c.Compile(t.L), c.Compile(t.R)
	return func(fr *Frame) (types.TriBool, error) {
		lv, err := l(fr)
		if err != nil {
			return types.TriNull, err
		}
		rv, err := r(fr)
		if err != nil {
			return types.TriNull, err
		}
		return types.CompareSQL(lv, rv, test), nil
	}
}

// frameEnv adapts a Frame (plus its compile-time layouts) back to the
// interpreter's Env interface, for the rare nodes that must fall back
// to interpretation (relational subexpressions).
type frameEnv struct {
	fr          *Frame
	ords, ords2 map[algebra.ColID]int
}

// Value implements Env.
func (e *frameEnv) Value(c algebra.ColID) (types.Datum, bool) {
	if i, ok := e.ords[c]; ok {
		return e.fr.Row[i], true
	}
	if i, ok := e.ords2[c]; ok {
		return e.fr.Row2[i], true
	}
	if e.fr.Outer != nil {
		return e.fr.Outer.Value(c)
	}
	return types.NullUnknown, false
}
