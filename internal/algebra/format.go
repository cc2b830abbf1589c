package algebra

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"orthoq/internal/sql/types"
)

// The renderers below append to a byte slice: FormatRel's text keys the
// Simplify fixpoint and the plan cache's fingerprints, and FormatNode's
// keys the optimizer's subtree classes, once per node a rule builds —
// often enough that the text is assembled in one buffer rather than
// from intermediate strings.

// FormatRel renders the tree in an indented one-operator-per-line form
// used by EXPLAIN and by the golden plan-shape tests that mirror the
// paper's figures.
func FormatRel(md *Metadata, r Rel) string {
	return string(appendRel(nil, md, r, 0))
}

// FormatNode renders r's own line of FormatRel — operator and
// arguments, without indentation, newline or children — so that
// FormatRel(md, r) is the indented pre-order concatenation of
// FormatNode over the tree. The one line that depends on more than the
// node itself is an Apply's, which lists the columns its right side
// binds from its left; those properties of r's inputs are asked of p.
func FormatNode(md *Metadata, p Props, r Rel) string {
	return string(AppendNode(nil, md, p, r))
}

func appendRel(b []byte, md *Metadata, r Rel, depth int) []byte {
	for i := 0; i < depth; i++ {
		b = append(b, "  "...)
	}
	b = AppendNode(b, md, FromScratch{r}, r)
	b = append(b, '\n')
	for _, c := range r.Inputs() {
		b = appendRel(b, md, c, depth+1)
	}
	return b
}

// Operator names of the join variants, indexed by JoinKind.
var (
	joinNames  = [...]string{InnerJoin: "Join", CrossJoin: "CrossJoin", LeftOuterJoin: "LeftOuterJoin", SemiJoin: "SemiJoin", AntiSemiJoin: "AntiSemiJoin"}
	applyNames = [...]string{InnerJoin: "Apply", CrossJoin: "Apply", LeftOuterJoin: "ApplyOuter", SemiJoin: "ApplySemi", AntiSemiJoin: "ApplyAnti"}
)

// appendCols appends the qualified aliases of s's columns in ascending
// ID order (an instance key's: in keyRank order), separated by sep.
func appendCols(b []byte, md *Metadata, s ColSet, sep string) []byte {
	first := true
	add := func(c ColID) {
		if !first {
			b = append(b, sep...)
		}
		b = md.appendQualifiedAlias(b, c)
		first = false
	}
	if md != nil && md.at != nil {
		// An instance key lists columns in the order it names them.
		cols := s.Ordered()
		slices.SortFunc(cols, func(x, y ColID) int { return md.keyRank(x) - md.keyRank(y) })
		for _, c := range cols {
			add(c)
		}
		return b
	}
	s.ForEach(add)
	return b
}

func appendOrderings(b []byte, md *Metadata, by []Ordering) []byte {
	for i, o := range by {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = md.appendQualifiedAlias(b, o.Col)
		if o.Desc {
			b = append(b, " desc"...)
		}
	}
	return b
}

// AppendNode appends FormatNode's text to b.
func AppendNode(b []byte, md *Metadata, p Props, r Rel) []byte {
	switch t := r.(type) {
	case *Get:
		b = append(append(b, "Get "...), t.Table...)
		if len(t.Order) > 0 {
			b = append(b, " order=["...)
			b = appendOrderings(b, md, t.Order)
			b = append(b, ']')
		}
	case *Select:
		b = append(b, "Select ["...)
		b = appendScalar(b, md, t.Filter)
		b = append(b, ']')
	case *Project:
		b = append(b, "Project ["...)
		b = appendCols(b, md, t.Passthrough, ", ")
		first := t.Passthrough.Empty()
		for _, it := range t.Items {
			if !first {
				b = append(b, ", "...)
			}
			b = append(md.appendAlias(b, it.Col), ":="...)
			b = appendScalar(b, md, it.Expr)
			first = false
		}
		b = append(b, ']')
	case *Join:
		b = append(b, joinNames[t.Kind]...)
		if t.On != nil && !IsTrueConst(t.On) {
			b = append(b, " ["...)
			b = appendScalar(b, md, t.On)
			b = append(b, ']')
		}
	case *Apply:
		b = append(b, applyNames[t.Kind]...)
		if binds := BindingSignature(p, t); !binds.Empty() {
			b = append(b, " (bind:"...)
			b = appendCols(b, md, binds, ",")
			b = append(b, ')')
		}
		if t.On != nil && !IsTrueConst(t.On) {
			b = append(b, " ["...)
			b = appendScalar(b, md, t.On)
			b = append(b, ']')
		}
	case *GroupBy:
		b = append(b, t.Kind.String()...)
		if !t.GroupCols.Empty() {
			b = append(b, " ["...)
			b = appendCols(b, md, t.GroupCols, ", ")
			b = append(b, ']')
		}
		if len(t.Aggs) > 0 {
			b = append(b, " aggs:["...)
			for i, a := range t.Aggs {
				if i > 0 {
					b = append(b, ", "...)
				}
				b = append(md.appendAlias(b, a.Col), ":="...)
				b = appendAgg(b, md, a)
			}
			b = append(b, ']')
		}
	case *SegmentApply:
		b = append(b, "SegmentApply ["...)
		b = appendCols(b, md, t.SegmentCols, ", ")
		b = append(b, ']')
	case *SegmentRef:
		b = append(b, "SegmentRef"...)
	case *Max1Row:
		b = append(b, "Max1Row"...)
	case *UnionAll:
		b = append(b, "UnionAll"...)
	case *Difference:
		b = append(b, "ExceptAll"...)
	case *Values:
		b = fmt.Appendf(b, "Values (%d rows)", len(t.Rows))
	case *Sort:
		b = append(b, "Sort ["...)
		b = appendOrderings(b, md, t.By)
		b = append(b, ']')
	case *Top:
		b = fmt.Appendf(b, "Top %d", t.N)
	case *Exchange:
		b = append(b, "Exchange"...)
	case *RowNumber:
		b = append(md.appendAlias(append(b, "RowNumber ["...), t.Col), ']')
	default:
		b = fmt.Appendf(b, "%T", r)
	}
	return b
}

// AppendNodeKey appends a rendering of r's own fields — its inputs
// excluded — that identifies what the node computes from them: columns
// are named by ID, the column lists FormatNode leaves out are spelled,
// and the conjuncts of a filter or join predicate come in sorted order,
// AND being commutative. Two nodes with equal keys over equivalent
// inputs are the same expression, which is what the optimizer's memo
// looks expressions up by; FormatNode's text cannot serve, because two
// instances of one table print alike.
func AppendNodeKey(b []byte, r Rel) []byte { return appendNodeKey(b, nil, r) }

// appendNodeKey is AppendNodeKey naming columns as the keying md does.
func appendNodeKey(b []byte, md *Metadata, r Rel) []byte {
	switch t := r.(type) {
	case *Select:
		return appendConjunctsKey(append(b, "Select "...), md, t.Filter)
	case *Join:
		return appendConjunctsKey(append(append(b, joinNames[t.Kind]...), ' '), md, t.On)
	case *Apply:
		// The binding signature FormatNode prints is derived from the
		// inputs, not a field.
		return appendConjunctsKey(append(append(b, applyNames[t.Kind]...), ' '), md, t.On)
	}
	b = AppendNode(b, md, nil, r)
	switch t := r.(type) {
	case *Get:
		b = appendColIDs(b, md, t.Cols)
	case *SegmentRef:
		b = appendColIDs(b, md, t.Cols)
	case *SegmentApply:
		b = appendColIDs(b, md, t.InputCols)
	case *UnionAll:
		b = appendColIDs(appendColIDs(appendColIDs(b, md, t.LeftCols), md, t.RightCols), md, t.OutCols)
	case *Difference:
		b = appendColIDs(appendColIDs(appendColIDs(b, md, t.LeftCols), md, t.RightCols), md, t.OutCols)
	case *Values:
		b = appendColIDs(b, md, t.Cols)
		for _, row := range t.Rows {
			b = appendJoined(b, md, row, ", ", "()")
		}
	}
	return b
}

func appendColIDs(b []byte, md *Metadata, cols []ColID) []byte {
	b = append(b, ' ')
	for _, c := range cols {
		b = md.appendQualifiedAlias(b, c)
	}
	return b
}

// Instance is a subtree's ID-free key and the columns its nodes
// produce, in preorder. Two subtrees are instances of one expression —
// the same rows up to a renaming of the columns they produce — exactly
// when their keys are equal and not empty, and the renaming is then the
// zip of their Cols.
type Instance struct {
	Key  string
	Cols []ColID
}

// InstanceOf returns r's Instance: r's nodes in preorder, each as
// AppendNodeKey renders it, except that a column r produces is named by
// its position in Cols and an outer reference by its ID, tagged apart.
// Only Get, Select, Project, GroupBy and Join are keyed: a tree holding
// another operator has the empty Instance. A subquery is keyed by
// pointer, so a tree holding one is an instance of no other tree.
func InstanceOf(r Rel) Instance {
	md := &Metadata{at: []ColID{}}
	if !md.number(r) {
		return Instance{}
	}
	return Instance{Key: string(md.appendInstanceKey(make([]byte, 0, 256), r)), Cols: md.at}
}

// number appends the columns r's nodes produce to md.at, in preorder,
// and reports whether InstanceOf keys r.
func (md *Metadata) number(r Rel) bool {
	switch r.(type) {
	case *Get, *Select, *Project, *GroupBy, *Join:
	default:
		return false
	}
	md.at = append(md.at, ProducedCols(r)...)
	left, right := InputsOf(r)
	return (left == nil || md.number(left)) && (right == nil || md.number(right))
}

// appendInstanceKey appends the keys of r's nodes in preorder, each
// after its length, so no two sequences of nodes render alike.
func (md *Metadata) appendInstanceKey(b []byte, r Rel) []byte {
	at := len(b)
	b = appendNodeKey(append(b, 0, 0, 0, 0), md, r)
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	for _, in := range r.Inputs() {
		b = md.appendInstanceKey(b, in)
	}
	return b
}

// AppendScalarKey appends the ID-named rendering of s that
// AppendNodeKey gives each conjunct of a predicate: a = b and b = a
// print alike. A predicate of two or more conjuncts is keyed by their
// renderings, each followed by '&', in sorted order.
func AppendScalarKey(b []byte, s Scalar) []byte { return appendScalar(b, nil, s) }

// appendConjunctsKey appends the keying md's renderings of pred's
// conjuncts in sorted order.
func appendConjunctsKey(b []byte, md *Metadata, pred Scalar) []byte {
	and, ok := pred.(*And)
	if !ok || len(and.Args) < 2 {
		return appendScalar(b, md, pred)
	}
	// Render the conjuncts after b, then append them again in order and
	// move that copy down over the first.
	start := len(b)
	var buf [8][2]int
	parts := buf[:0]
	for _, a := range and.Args {
		from := len(b)
		b = append(appendScalar(b, md, a), '&')
		parts = append(parts, [2]int{from, len(b)})
	}
	unsorted := b[:len(b):len(b)]
	slices.SortFunc(parts, func(x, y [2]int) int {
		return bytes.Compare(unsorted[x[0]:x[1]], unsorted[y[0]:y[1]])
	})
	for _, p := range parts {
		b = append(b, unsorted[p[0]:p[1]]...)
	}
	return append(b[:start], b[len(unsorted):]...)
}

func appendAgg(b []byte, md *Metadata, a AggItem) []byte {
	b = append(b, a.Func.String()...)
	if a.Global {
		b = append(b, "_g"...)
	}
	if a.Func == AggCountStar {
		return b
	}
	b = append(b, '(')
	if a.Distinct {
		b = append(b, "distinct "...)
	}
	b = appendScalar(b, md, a.Arg)
	return append(b, ')')
}

// FormatScalar renders a scalar expression in SQL-ish syntax.
func FormatScalar(md *Metadata, s Scalar) string {
	return string(appendScalar(nil, md, s))
}

// appendJoined appends the renderings of args separated by sep, in
// parentheses, or empty when there are none.
func appendJoined(b []byte, md *Metadata, args []Scalar, sep, empty string) []byte {
	if len(args) == 0 {
		return append(b, empty...)
	}
	b = append(b, '(')
	for i, a := range args {
		if i > 0 {
			b = append(b, sep...)
		}
		b = appendScalar(b, md, a)
	}
	return append(b, ')')
}

func appendScalar(b []byte, md *Metadata, s Scalar) []byte {
	if s == nil {
		return append(b, "true"...)
	}
	switch t := s.(type) {
	case *ColRef:
		return md.appendQualifiedAlias(b, t.Col)
	case *Const:
		b = append(b, t.Val.String()...)
		if k := t.Val.Kind(); md.keying() && !t.Val.IsNull() && (k == types.Float || k == types.Date) {
			// In a key a constant's kind is part of it: Int 2 and Float
			// 2.0 print alike, but 3/2 and 3/2.0 differ.
			b = append(append(b, "::"...), k.String()...)
		}
		return b
	case *Param:
		// Value-free on purpose: FormatRel keys the optimizer memo and
		// the Simplify fixpoint, so two plans differing only in sniffed
		// parameter values must format identically.
		return strconv.AppendInt(append(b, '$'), int64(t.Idx+1), 10)
	case *Cmp:
		l, r := t.L, t.R
		if md.keying() && t.Op == CmpEq {
			// In a key, a = b and b = a are one predicate.
			if lc, ok := l.(*ColRef); ok {
				if rc, ok := r.(*ColRef); ok && md.keyRank(rc.Col) < md.keyRank(lc.Col) {
					l, r = r, l
				}
			}
		}
		b = appendScalar(b, md, l)
		b = append(append(append(b, ' '), t.Op.String()...), ' ')
		return appendScalar(b, md, r)
	case *And:
		return appendJoined(b, md, t.Args, " AND ", "true")
	case *Or:
		return appendJoined(b, md, t.Args, " OR ", "false")
	case *Not:
		b = append(b, "NOT ("...)
		b = appendScalar(b, md, t.Arg)
		return append(b, ')')
	case *Arith:
		b = append(b, '(')
		b = appendScalar(b, md, t.L)
		b = append(append(append(b, ' '), t.Op.String()...), ' ')
		b = appendScalar(b, md, t.R)
		return append(b, ')')
	case *IsNull:
		b = appendScalar(b, md, t.Arg)
		if t.Negate {
			return append(b, " IS NOT NULL"...)
		}
		return append(b, " IS NULL"...)
	case *Like:
		b = appendScalar(b, md, t.L)
		if t.Negate {
			b = append(b, " NOT LIKE "...)
		} else {
			b = append(b, " LIKE "...)
		}
		return appendScalar(b, md, t.R)
	case *InList:
		b = appendScalar(b, md, t.Arg)
		if t.Negate {
			b = append(b, " NOT IN ("...)
		} else {
			b = append(b, " IN ("...)
		}
		for i, a := range t.List {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendScalar(b, md, a)
		}
		return append(b, ')')
	case *Case:
		b = append(b, "CASE"...)
		for _, w := range t.Whens {
			b = append(b, " WHEN "...)
			b = appendScalar(b, md, w.Cond)
			b = append(b, " THEN "...)
			b = appendScalar(b, md, w.Then)
		}
		if t.Else != nil {
			b = append(b, " ELSE "...)
			b = appendScalar(b, md, t.Else)
		}
		return append(b, " END"...)
	case *Subquery:
		if md.keying() {
			// A nested query has no ID-exact text: only the node itself
			// is the same expression.
			return fmt.Appendf(b, "SUBQUERY(%p)", t)
		}
		return append(md.appendAlias(append(b, "SUBQUERY("...), t.Col), ')')
	case *Exists:
		if md.keying() {
			return fmt.Appendf(b, "EXISTS(%p,%t)", t, t.Negate)
		}
		if t.Negate {
			return append(b, "NOT EXISTS(...)"...)
		}
		return append(b, "EXISTS(...)"...)
	case *Quantified:
		if md.keying() {
			return fmt.Appendf(b, "QUANTIFIED(%p)", t)
		}
		b = appendScalar(b, md, t.Arg)
		b = append(append(append(b, ' '), t.Op.String()...), ' ')
		if t.All {
			return append(b, "ALL(...)"...)
		}
		return append(b, "ANY(...)"...)
	}
	return fmt.Appendf(b, "%T", s)
}
