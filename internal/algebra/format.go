package algebra

import (
	"fmt"
	"strings"
)

// FormatRel renders the tree in an indented one-operator-per-line form
// used by EXPLAIN and by the golden plan-shape tests that mirror the
// paper's figures.
func FormatRel(md *Metadata, r Rel) string {
	var b strings.Builder
	formatRel(md, r, 0, &b)
	return b.String()
}

// FormatNode renders r's own line of FormatRel — operator and
// arguments, without indentation, newline or children — so that
// FormatRel(md, r) is the indented pre-order concatenation of
// FormatNode over the tree. The one line that depends on more than the
// node itself is an Apply's, which lists the columns its right side
// binds from its left; those properties are asked of p.
func FormatNode(md *Metadata, p Props, r Rel) string {
	var b strings.Builder
	formatNode(md, p, r, &b)
	return b.String()
}

func formatRel(md *Metadata, r Rel, depth int, b *strings.Builder) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	formatNode(md, FromScratch{}, r, b)
	b.WriteByte('\n')
	for _, c := range r.Inputs() {
		formatRel(md, c, depth+1, b)
	}
}

// Operator names of the join variants, indexed by JoinKind.
var (
	joinNames  = [...]string{InnerJoin: "Join", CrossJoin: "CrossJoin", LeftOuterJoin: "LeftOuterJoin", SemiJoin: "SemiJoin", AntiSemiJoin: "AntiSemiJoin"}
	applyNames = [...]string{InnerJoin: "Apply", CrossJoin: "Apply", LeftOuterJoin: "ApplyOuter", SemiJoin: "ApplySemi", AntiSemiJoin: "ApplyAnti"}
)

func formatNode(md *Metadata, p Props, r Rel, b *strings.Builder) {
	switch t := r.(type) {
	case *Get:
		fmt.Fprintf(b, "Get %s", t.Table)
		if len(t.Order) > 0 {
			b.WriteString(" order=[")
			for i, o := range t.Order {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(md.QualifiedAlias(o.Col))
				if o.Desc {
					b.WriteString(" desc")
				}
			}
			b.WriteString("]")
		}
	case *Select:
		fmt.Fprintf(b, "Select [%s]", FormatScalar(md, t.Filter))
	case *Project:
		b.WriteString("Project [")
		first := true
		t.Passthrough.ForEach(func(c ColID) {
			if !first {
				b.WriteString(", ")
			}
			b.WriteString(md.QualifiedAlias(c))
			first = false
		})
		for _, it := range t.Items {
			if !first {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s:=%s", md.Alias(it.Col), FormatScalar(md, it.Expr))
			first = false
		}
		b.WriteString("]")
	case *Join:
		b.WriteString(joinNames[t.Kind])
		if t.On != nil && !IsTrueConst(t.On) {
			fmt.Fprintf(b, " [%s]", FormatScalar(md, t.On))
		}
	case *Apply:
		b.WriteString(applyNames[t.Kind])
		binds := BindingSignature(p, t)
		if !binds.Empty() {
			b.WriteString(" (bind:")
			first := true
			binds.ForEach(func(c ColID) {
				if !first {
					b.WriteString(",")
				}
				b.WriteString(md.QualifiedAlias(c))
				first = false
			})
			b.WriteString(")")
		}
		if t.On != nil && !IsTrueConst(t.On) {
			fmt.Fprintf(b, " [%s]", FormatScalar(md, t.On))
		}
	case *GroupBy:
		b.WriteString(t.Kind.String())
		if !t.GroupCols.Empty() {
			b.WriteString(" [")
			first := true
			t.GroupCols.ForEach(func(c ColID) {
				if !first {
					b.WriteString(", ")
				}
				b.WriteString(md.QualifiedAlias(c))
				first = false
			})
			b.WriteString("]")
		}
		if len(t.Aggs) > 0 {
			b.WriteString(" aggs:[")
			for i, a := range t.Aggs {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(b, "%s:=%s", md.Alias(a.Col), formatAgg(md, a))
			}
			b.WriteString("]")
		}
	case *SegmentApply:
		b.WriteString("SegmentApply [")
		first := true
		t.SegmentCols.ForEach(func(c ColID) {
			if !first {
				b.WriteString(", ")
			}
			b.WriteString(md.QualifiedAlias(c))
			first = false
		})
		b.WriteString("]")
	case *SegmentRef:
		b.WriteString("SegmentRef")
	case *Max1Row:
		b.WriteString("Max1Row")
	case *UnionAll:
		b.WriteString("UnionAll")
	case *Difference:
		b.WriteString("ExceptAll")
	case *Values:
		fmt.Fprintf(b, "Values (%d rows)", len(t.Rows))
	case *Sort:
		b.WriteString("Sort [")
		for i, o := range t.By {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(md.QualifiedAlias(o.Col))
			if o.Desc {
				b.WriteString(" desc")
			}
		}
		b.WriteString("]")
	case *Top:
		fmt.Fprintf(b, "Top %d", t.N)
	case *RowNumber:
		fmt.Fprintf(b, "RowNumber [%s]", md.Alias(t.Col))
	default:
		fmt.Fprintf(b, "%T", r)
	}
}

func formatAgg(md *Metadata, a AggItem) string {
	name := a.Func.String()
	if a.Global {
		name += "_g"
	}
	if a.Func == AggCountStar {
		return name
	}
	arg := FormatScalar(md, a.Arg)
	if a.Distinct {
		arg = "distinct " + arg
	}
	return name + "(" + arg + ")"
}

// FormatScalar renders a scalar expression in SQL-ish syntax.
func FormatScalar(md *Metadata, s Scalar) string {
	if s == nil {
		return "true"
	}
	switch t := s.(type) {
	case *ColRef:
		return md.QualifiedAlias(t.Col)
	case *Const:
		return t.Val.String()
	case *Param:
		// Value-free on purpose: FormatRel keys the optimizer memo and
		// the Simplify fixpoint, so two plans differing only in sniffed
		// parameter values must format identically.
		return fmt.Sprintf("$%d", t.Idx+1)
	case *Cmp:
		return fmt.Sprintf("%s %s %s", FormatScalar(md, t.L), t.Op, FormatScalar(md, t.R))
	case *And:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = FormatScalar(md, a)
		}
		if len(parts) == 0 {
			return "true"
		}
		return "(" + strings.Join(parts, " AND ") + ")"
	case *Or:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = FormatScalar(md, a)
		}
		if len(parts) == 0 {
			return "false"
		}
		return "(" + strings.Join(parts, " OR ") + ")"
	case *Not:
		return "NOT (" + FormatScalar(md, t.Arg) + ")"
	case *Arith:
		return fmt.Sprintf("(%s %s %s)", FormatScalar(md, t.L), t.Op, FormatScalar(md, t.R))
	case *IsNull:
		if t.Negate {
			return FormatScalar(md, t.Arg) + " IS NOT NULL"
		}
		return FormatScalar(md, t.Arg) + " IS NULL"
	case *Like:
		op := " LIKE "
		if t.Negate {
			op = " NOT LIKE "
		}
		return FormatScalar(md, t.L) + op + FormatScalar(md, t.R)
	case *InList:
		parts := make([]string, len(t.List))
		for i, a := range t.List {
			parts[i] = FormatScalar(md, a)
		}
		op := " IN ("
		if t.Negate {
			op = " NOT IN ("
		}
		return FormatScalar(md, t.Arg) + op + strings.Join(parts, ", ") + ")"
	case *Case:
		var b strings.Builder
		b.WriteString("CASE")
		for _, w := range t.Whens {
			fmt.Fprintf(&b, " WHEN %s THEN %s", FormatScalar(md, w.Cond), FormatScalar(md, w.Then))
		}
		if t.Else != nil {
			fmt.Fprintf(&b, " ELSE %s", FormatScalar(md, t.Else))
		}
		b.WriteString(" END")
		return b.String()
	case *Subquery:
		return "SUBQUERY(" + md.Alias(t.Col) + ")"
	case *Exists:
		if t.Negate {
			return "NOT EXISTS(...)"
		}
		return "EXISTS(...)"
	case *Quantified:
		q := "ANY"
		if t.All {
			q = "ALL"
		}
		return fmt.Sprintf("%s %s %s(...)", FormatScalar(md, t.Arg), t.Op, q)
	}
	return fmt.Sprintf("%T", s)
}
