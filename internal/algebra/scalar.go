package algebra

import (
	"orthoq/internal/sql/types"
)

// Scalar is a scalar-valued expression tree node. Scalars may contain
// relational subexpressions (Subquery, Exists, Quantified) before
// normalization removes the mutual recursion by introducing Apply
// (paper §2.1–2.2).
type Scalar interface {
	scalarNode()
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String renders the operator symbol.
func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// Commute returns the operator with operand roles swapped (a op b ==
// b op' a).
func (o CmpOp) Commute() CmpOp {
	switch o {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	}
	return o
}

// Negate returns the complement operator (NOT (a op b) == a op' b for
// non-NULL operands).
func (o CmpOp) Negate() CmpOp {
	switch o {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpGe:
		return CmpLt
	}
	return o
}

// Test evaluates the operator against a Compare result.
func (o CmpOp) Test(c int) bool {
	switch o {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// ColRef references a column by ID.
type ColRef struct {
	Col ColID
}

// Const is a literal datum.
type Const struct {
	Val types.Datum
}

// Param is a query parameter slot produced by forced parameterization
// (plan caching). Val is the literal value "sniffed" from the query
// that created the plan: the coster may read it to estimate
// selectivities, but normalization and folding treat Param as opaque so
// the plan's structure never depends on it. At execution time the slot
// resolves through the parameter vector bound into the evaluator, not
// through Val.
type Param struct {
	Idx int
	Val types.Datum
}

// Cmp is a binary comparison L op R.
type Cmp struct {
	Op   CmpOp
	L, R Scalar
}

// And is an n-ary conjunction. Empty And is TRUE.
type And struct {
	Args []Scalar
}

// Or is an n-ary disjunction. Empty Or is FALSE.
type Or struct {
	Args []Scalar
}

// Not is logical negation.
type Not struct {
	Arg Scalar
}

// Arith is binary arithmetic.
type Arith struct {
	Op   types.BinOp
	L, R Scalar
}

// IsNull tests "Arg IS NULL" (or IS NOT NULL with Negate).
type IsNull struct {
	Arg    Scalar
	Negate bool
}

// Like is "L LIKE R" (or NOT LIKE).
type Like struct {
	L, R   Scalar
	Negate bool
}

// InList is "Arg IN (list...)" (or NOT IN). IN with a subquery is
// represented as Quantified and normalized away.
type InList struct {
	Arg    Scalar
	List   []Scalar
	Negate bool
}

// When is one CASE arm.
type When struct {
	Cond Scalar
	Then Scalar
}

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Scalar // nil means ELSE NULL
}

// Subquery is a scalar-valued subquery: it must return at most one row
// and one column; zero rows yield NULL; more than one row is a run-time
// error enforced by Max1Row (paper §2.4, class 3).
type Subquery struct {
	Input Rel
	// Col is the single output column of Input used as the value.
	Col ColID
}

// Exists is "EXISTS (Input)" (or NOT EXISTS).
type Exists struct {
	Input  Rel
	Negate bool
}

// Quantified is "Arg op ANY/ALL (Input)"; IN is =ANY, NOT IN is <>ALL.
type Quantified struct {
	Op  CmpOp
	All bool // false = ANY/SOME
	Arg Scalar
	// Input is the subquery; Col is its value column.
	Input Rel
	Col   ColID
}

func (*ColRef) scalarNode()     {}
func (*Const) scalarNode()      {}
func (*Param) scalarNode()      {}
func (*Cmp) scalarNode()        {}
func (*And) scalarNode()        {}
func (*Or) scalarNode()         {}
func (*Not) scalarNode()        {}
func (*Arith) scalarNode()      {}
func (*IsNull) scalarNode()     {}
func (*Like) scalarNode()       {}
func (*InList) scalarNode()     {}
func (*Case) scalarNode()       {}
func (*Subquery) scalarNode()   {}
func (*Exists) scalarNode()     {}
func (*Quantified) scalarNode() {}

// TrueScalar is the constant TRUE predicate.
func TrueScalar() Scalar { return &Const{Val: types.NewBool(true)} }

// IsTrueConst reports whether s is the literal TRUE.
func IsTrueConst(s Scalar) bool {
	c, ok := s.(*Const)
	return ok && !c.Val.IsNull() && c.Val.Kind() == types.Bool && c.Val.Bool()
}

// ColEquality matches a conjunct equating two different columns.
func ColEquality(s Scalar) (l, r ColID, ok bool) {
	cmp, ok := s.(*Cmp)
	if !ok || cmp.Op != CmpEq {
		return 0, 0, false
	}
	lc, lok := cmp.L.(*ColRef)
	rc, rok := cmp.R.(*ColRef)
	if !lok || !rok || lc.Col == rc.Col {
		return 0, 0, false
	}
	return lc.Col, rc.Col, true
}

// ConjoinAll flattens the non-nil predicates into a single conjunction,
// returning TRUE for an empty list and the lone predicate unwrapped.
func ConjoinAll(preds ...Scalar) Scalar {
	var args []Scalar
	var push func(Scalar)
	push = func(s Scalar) {
		if s == nil || IsTrueConst(s) {
			return
		}
		if a, ok := s.(*And); ok {
			for _, x := range a.Args {
				push(x)
			}
			return
		}
		args = append(args, s)
	}
	for _, p := range preds {
		push(p)
	}
	switch len(args) {
	case 0:
		return TrueScalar()
	case 1:
		return args[0]
	}
	return &And{Args: args}
}

// Conjuncts splits a predicate into its top-level conjuncts.
func Conjuncts(s Scalar) []Scalar { return AppendConjuncts(nil, s) }

// AppendConjuncts appends the top-level conjuncts of s to dst, for
// callers that split predicates often enough to keep a buffer.
func AppendConjuncts(dst []Scalar, s Scalar) []Scalar {
	if s == nil || IsTrueConst(s) {
		return dst
	}
	if a, ok := s.(*And); ok {
		for _, x := range a.Args {
			dst = AppendConjuncts(dst, x)
		}
		return dst
	}
	return append(dst, s)
}

// VisitScalar walks s depth-first, calling f on every scalar node. It
// does not descend into relational subexpressions; use
// ScalarRelInputs for those.
func VisitScalar(s Scalar, f func(Scalar)) {
	if s == nil {
		return
	}
	f(s)
	switch t := s.(type) {
	case *Cmp:
		VisitScalar(t.L, f)
		VisitScalar(t.R, f)
	case *And:
		for _, a := range t.Args {
			VisitScalar(a, f)
		}
	case *Or:
		for _, a := range t.Args {
			VisitScalar(a, f)
		}
	case *Not:
		VisitScalar(t.Arg, f)
	case *Arith:
		VisitScalar(t.L, f)
		VisitScalar(t.R, f)
	case *IsNull:
		VisitScalar(t.Arg, f)
	case *Like:
		VisitScalar(t.L, f)
		VisitScalar(t.R, f)
	case *InList:
		VisitScalar(t.Arg, f)
		for _, a := range t.List {
			VisitScalar(a, f)
		}
	case *Case:
		for _, w := range t.Whens {
			VisitScalar(w.Cond, f)
			VisitScalar(w.Then, f)
		}
		VisitScalar(t.Else, f)
	case *Quantified:
		VisitScalar(t.Arg, f)
	}
}

// ScalarRelInputs returns the relational subexpressions directly nested
// in s (not recursing into them).
func ScalarRelInputs(s Scalar) []Rel {
	var out []Rel
	VisitScalar(s, func(n Scalar) {
		switch t := n.(type) {
		case *Subquery:
			out = append(out, t.Input)
		case *Exists:
			out = append(out, t.Input)
		case *Quantified:
			out = append(out, t.Input)
		}
	})
	return out
}

// ScalarCols returns the columns referenced directly by s, excluding
// columns referenced inside nested relational subexpressions (those are
// accounted as the subexpressions' outer references).
func ScalarCols(s Scalar) ColSet {
	var set ColSet
	VisitScalar(s, func(n Scalar) {
		if r, ok := n.(*ColRef); ok {
			set.Add(r.Col)
		}
	})
	return set
}

// HasSubquery reports whether s contains any relational subexpression.
func HasSubquery(s Scalar) bool {
	return len(ScalarRelInputs(s)) > 0
}

// MapChildren returns s rebuilt with f applied to each of its direct
// scalar children, in the order VisitScalar visits them (a nil child
// stays nil). A node without scalar children — ColRef, Const, Param,
// Subquery, Exists — is returned as it is.
func MapChildren(s Scalar, f func(Scalar) Scalar) Scalar {
	g := func(c Scalar) Scalar {
		if c == nil {
			return nil
		}
		return f(c)
	}
	all := func(xs []Scalar) []Scalar {
		out := make([]Scalar, len(xs))
		for i, x := range xs {
			out[i] = g(x)
		}
		return out
	}
	switch t := s.(type) {
	case *Cmp:
		return &Cmp{Op: t.Op, L: g(t.L), R: g(t.R)}
	case *And:
		return &And{Args: all(t.Args)}
	case *Or:
		return &Or{Args: all(t.Args)}
	case *Not:
		return &Not{Arg: g(t.Arg)}
	case *Arith:
		return &Arith{Op: t.Op, L: g(t.L), R: g(t.R)}
	case *IsNull:
		return &IsNull{Arg: g(t.Arg), Negate: t.Negate}
	case *Like:
		return &Like{L: g(t.L), R: g(t.R), Negate: t.Negate}
	case *InList:
		return &InList{Arg: g(t.Arg), List: all(t.List), Negate: t.Negate}
	case *Case:
		whens := make([]When, len(t.Whens))
		for i, w := range t.Whens {
			whens[i] = When{Cond: g(w.Cond), Then: g(w.Then)}
		}
		return &Case{Whens: whens, Else: g(t.Else)}
	case *Quantified:
		q := *t
		q.Arg = g(t.Arg)
		return &q
	}
	return s
}

// MapScalar returns a new scalar tree with every column reference c
// replaced by col(c) — any scalar; nil keeps the reference — and every
// relational subexpression by rel(r) (a nil rel leaves them in place).
// A subquery's or quantifier's value column is renamed where col maps
// it to a column.
func MapScalar(s Scalar, col func(ColID) Scalar, rel func(Rel) Rel) Scalar {
	mapRel := func(r Rel) Rel {
		if rel == nil {
			return r
		}
		return rel(r)
	}
	valueCol := func(c ColID) ColID {
		if r, ok := col(c).(*ColRef); ok {
			return r.Col
		}
		return c
	}
	var f func(Scalar) Scalar
	f = func(s Scalar) Scalar {
		switch t := s.(type) {
		case *ColRef:
			if n := col(t.Col); n != nil {
				return n
			}
			return t
		case *Subquery:
			return &Subquery{Input: mapRel(t.Input), Col: valueCol(t.Col)}
		case *Exists:
			return &Exists{Input: mapRel(t.Input), Negate: t.Negate}
		case *Quantified:
			q := MapChildren(t, f).(*Quantified)
			q.Input, q.Col = mapRel(t.Input), valueCol(t.Col)
			return q
		}
		return MapChildren(s, f)
	}
	return f(s)
}

// MapScalarCols rewrites column references through the substitution
// map, returning a new scalar tree. Columns absent from the map are
// preserved. Relational subexpressions are rewritten recursively via
// the rel callback (which may be nil to leave them in place).
func MapScalarCols(s Scalar, sub map[ColID]ColID, rel func(Rel) Rel) Scalar {
	return MapScalar(s, func(c ColID) Scalar {
		if n, ok := sub[c]; ok {
			return &ColRef{Col: n}
		}
		return nil
	}, rel)
}
