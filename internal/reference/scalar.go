package reference

import (
	"fmt"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

func boolean(t types.TriBool) types.Datum {
	if t == types.TriNull {
		return types.Null(types.Bool)
	}
	return types.NewBool(t == types.TriTrue)
}

// holds reports whether predicate s is TRUE in sc (not FALSE, not
// UNKNOWN); a nil predicate holds.
func (e *Evaluator) holds(s algebra.Scalar, sc *scope) (bool, error) {
	if s == nil {
		return true, nil
	}
	t, err := e.truth(s, sc)
	return t == types.TriTrue, err
}

func (e *Evaluator) truth(s algebra.Scalar, sc *scope) (types.TriBool, error) {
	d, err := e.scalar(s, sc)
	if err != nil || d.IsNull() {
		return types.TriNull, err
	}
	return types.TriOf(d.Bool()), nil
}

// pair evaluates two operands left to right.
func (e *Evaluator) pair(l, r algebra.Scalar, sc *scope) (a, b types.Datum, err error) {
	if a, err = e.scalar(l, sc); err == nil {
		b, err = e.scalar(r, sc)
	}
	return a, b, err
}

// fold is the n-ary connective of three-valued logic, evaluated left to
// right and stopping at the first term equal to decided: AND is decided
// by FALSE (and TRUE over no terms), OR by TRUE (FALSE over no terms).
// IN lists and ANY are ORs over comparisons, ALL is an AND.
func fold(n int, decided types.TriBool, term func(i int) (types.TriBool, error)) (types.Datum, error) {
	acc := decided.Not()
	for i := 0; i < n; i++ {
		v, err := term(i)
		if err != nil || v == decided {
			return boolean(decided), err
		}
		if v == types.TriNull {
			acc = types.TriNull
		}
	}
	return boolean(acc), nil
}

// scalar evaluates s for the row(s) in scope. AND, OR, IN and CASE
// evaluate left to right and stop as soon as the outcome is decided, so
// a guard protects what follows it (division by zero, a subquery that
// would return two rows).
func (e *Evaluator) scalar(s algebra.Scalar, sc *scope) (types.Datum, error) {
	switch t := s.(type) {
	case *algebra.ColRef:
		for ; sc != nil; sc = sc.parent {
			if o, ok := sc.rel.ords[t.Col]; ok {
				return sc.row[o], nil
			}
		}
		return types.NullUnknown, fmt.Errorf("reference: unbound column %d", t.Col)

	case *algebra.Const:
		return t.Val, nil

	case *algebra.Param:
		if t.Idx < 0 || t.Idx >= len(e.Params) {
			return types.NullUnknown, fmt.Errorf("reference: unbound parameter $%d", t.Idx+1)
		}
		return e.Params[t.Idx], nil

	case *algebra.Cmp:
		l, r, err := e.pair(t.L, t.R, sc)
		return boolean(types.CompareSQL(l, r, t.Op.Test)), err

	case *algebra.And:
		return fold(len(t.Args), types.TriFalse, func(i int) (types.TriBool, error) { return e.truth(t.Args[i], sc) })

	case *algebra.Or:
		return fold(len(t.Args), types.TriTrue, func(i int) (types.TriBool, error) { return e.truth(t.Args[i], sc) })

	case *algebra.Not:
		v, err := e.truth(t.Arg, sc)
		return boolean(v.Not()), err

	case *algebra.Arith:
		l, r, err := e.pair(t.L, t.R, sc)
		if err != nil {
			return l, err
		}
		return types.Arith(t.Op, l, r)

	case *algebra.IsNull:
		v, err := e.scalar(t.Arg, sc)
		return types.NewBool(v.IsNull() != t.Negate), err

	case *algebra.Like:
		l, r, err := e.pair(t.L, t.R, sc)
		if err != nil || l.IsNull() || r.IsNull() {
			return types.Null(types.Bool), err
		}
		return types.NewBool(like(l.Str(), r.Str()) != t.Negate), nil

	case *algebra.InList:
		arg, err := e.scalar(t.Arg, sc)
		if err != nil {
			return arg, err
		}
		in, err := fold(len(t.List), types.TriTrue, func(i int) (types.TriBool, error) {
			v, err := e.scalar(t.List[i], sc)
			return types.CompareSQL(arg, v, algebra.CmpEq.Test), err
		})
		if t.Negate && !in.IsNull() {
			in = types.NewBool(!in.Bool())
		}
		return in, err

	case *algebra.Case:
		for _, w := range t.Whens {
			ok, err := e.holds(w.Cond, sc)
			if err != nil {
				return types.NullUnknown, err
			}
			if ok {
				return e.scalar(w.Then, sc)
			}
		}
		if t.Else == nil {
			return types.NullUnknown, nil
		}
		return e.scalar(t.Else, sc)

	case *algebra.Subquery:
		vals, err := e.column(t.Input, t.Col, sc)
		switch {
		case err != nil || len(vals) == 0:
			return types.NullUnknown, err
		case len(vals) > 1:
			return types.NullUnknown, fmt.Errorf("reference: scalar subquery returned more than one row")
		}
		return vals[0], nil

	case *algebra.Exists:
		vals, err := e.column(t.Input, -1, sc)
		return types.NewBool((len(vals) > 0) != t.Negate), err

	case *algebra.Quantified:
		arg, err := e.scalar(t.Arg, sc)
		if err != nil {
			return arg, err
		}
		vals, err := e.column(t.Input, t.Col, sc)
		if err != nil {
			return types.NullUnknown, err
		}
		return fold(len(vals), types.TriOf(!t.All), func(i int) (types.TriBool, error) {
			return types.CompareSQL(arg, vals[i], t.Op.Test), nil
		})
	}
	return types.NullUnknown, fmt.Errorf("reference: cannot evaluate scalar %T", s)
}

// column evaluates a subquery input for the row in scope and returns
// its col values (one NULL per row for col -1: EXISTS only counts).
func (e *Evaluator) column(rel algebra.Rel, col algebra.ColID, sc *scope) ([]types.Datum, error) {
	r, err := e.nested(rel, sc)
	if err != nil {
		return nil, err
	}
	vals := make([]types.Datum, len(r.rows))
	if col >= 0 {
		o := r.ord(col)
		for i, row := range r.rows {
			vals[i] = row[o]
		}
	}
	return vals, nil
}

// like matches s against a SQL LIKE pattern: % is any run of bytes, _
// any one byte. Plain recursion on the pattern — exponential on
// adversarial patterns, fine for an oracle.
func like(s, pattern string) bool {
	if pattern == "" {
		return s == ""
	}
	switch pattern[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if like(s[i:], pattern[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && like(s[1:], pattern[1:])
	}
	return s != "" && s[0] == pattern[0] && like(s[1:], pattern[1:])
}
