package ast

import (
	"fmt"
	"strings"
)

// Format renders a query back to SQL. The output parses to an
// equivalent AST (Format is a right inverse of the parser up to
// whitespace), which the parser's round-trip property tests rely on.
func Format(q Query) string {
	var b strings.Builder
	formatQuery(&b, q)
	return b.String()
}

func formatQuery(b *strings.Builder, q Query) {
	switch t := q.(type) {
	case *SelectStmt:
		formatSelect(b, t)
	case *UnionStmt:
		formatQuery(b, t.Left)
		b.WriteString(" union all ")
		formatQuery(b, t.Right)
	case *ExceptStmt:
		formatQuery(b, t.Left)
		b.WriteString(" except all ")
		formatQuery(b, t.Right)
	case *WithStmt:
		b.WriteString("with ")
		for i, cte := range t.CTEs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(cte.Name)
			if len(cte.ColAliases) > 0 {
				b.WriteString(" (")
				b.WriteString(strings.Join(cte.ColAliases, ", "))
				b.WriteString(")")
			}
			b.WriteString(" as (")
			formatQuery(b, cte.Query)
			b.WriteString(")")
		}
		b.WriteString(" ")
		formatQuery(b, t.Body)
	default:
		fmt.Fprintf(b, "/* unknown query %T */", q)
	}
}

func formatSelect(b *strings.Builder, s *SelectStmt) {
	b.WriteString("select ")
	if s.Distinct {
		b.WriteString("distinct ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			if it.Table != "" {
				b.WriteString(it.Table)
				b.WriteString(".")
			}
			b.WriteString("*")
			continue
		}
		b.WriteString(FormatExpr(it.Expr))
		if it.Alias != "" {
			b.WriteString(" as ")
			b.WriteString(it.Alias)
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" from ")
		for i, te := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			formatTableExpr(b, te)
		}
	}
	if s.Where != nil {
		b.WriteString(" where ")
		b.WriteString(FormatExpr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(FormatExpr(e))
		}
	}
	if s.Having != nil {
		b.WriteString(" having ")
		b.WriteString(FormatExpr(s.Having))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" order by ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(FormatExpr(o.Expr))
			if o.Desc {
				b.WriteString(" desc")
			}
		}
	}
	if s.Limit != nil {
		fmt.Fprintf(b, " limit %d", *s.Limit)
	}
}

func formatTableExpr(b *strings.Builder, te TableExpr) {
	switch t := te.(type) {
	case *TableName:
		b.WriteString(t.Name)
		if t.Alias != "" {
			b.WriteString(" as ")
			b.WriteString(t.Alias)
		}
	case *DerivedTable:
		b.WriteString("(")
		formatQuery(b, t.Query)
		b.WriteString(") as ")
		b.WriteString(t.Alias)
		if len(t.ColAliases) > 0 {
			b.WriteString(" (")
			b.WriteString(strings.Join(t.ColAliases, ", "))
			b.WriteString(")")
		}
	case *JoinExpr:
		// Parenthesize the chain so reparsing preserves associativity.
		b.WriteString("(")
		formatTableExpr(b, t.Left)
		switch t.Kind {
		case JoinInner:
			b.WriteString(" join ")
		case JoinLeftOuter:
			b.WriteString(" left outer join ")
		case JoinCross:
			b.WriteString(" cross join ")
		}
		formatTableExpr(b, t.Right)
		if t.On != nil {
			b.WriteString(" on ")
			b.WriteString(FormatExpr(t.On))
		}
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "/* unknown table expr %T */", te)
	}
}

// FormatExpr renders one scalar expression. All compound forms are
// parenthesized, so operator precedence never needs reconstructing.
func FormatExpr(e Expr) string {
	switch t := e.(type) {
	case nil:
		return "null"
	case *Ident:
		if t.Table != "" {
			return t.Table + "." + t.Name
		}
		return t.Name
	case *NumberLit:
		return t.Text
	case *StringLit:
		return quote(t.Val)
	case *DateLit:
		return "date " + quote(t.Val)
	case *IntervalLit:
		return fmt.Sprintf("interval '%d' %s", t.N, t.Unit)
	case *Param:
		return fmt.Sprintf("$%d", t.Idx+1)
	case *NullLit:
		return "null"
	case *BoolLit:
		if t.Val {
			return "true"
		}
		return "false"
	case *BinaryExpr:
		return "(" + FormatExpr(t.L) + " " + t.Op + " " + FormatExpr(t.R) + ")"
	case *UnaryExpr:
		if t.Op == "not" {
			return "(not " + FormatExpr(t.Arg) + ")"
		}
		return "(- " + FormatExpr(t.Arg) + ")"
	case *IsNullExpr:
		if t.Not {
			return "(" + FormatExpr(t.Arg) + " is not null)"
		}
		return "(" + FormatExpr(t.Arg) + " is null)"
	case *BetweenExpr:
		not := ""
		if t.Not {
			not = "not "
		}
		return "(" + FormatExpr(t.Arg) + " " + not + "between " +
			FormatExpr(t.Lo) + " and " + FormatExpr(t.Hi) + ")"
	case *LikeExpr:
		not := ""
		if t.Not {
			not = "not "
		}
		return "(" + FormatExpr(t.L) + " " + not + "like " + FormatExpr(t.R) + ")"
	case *InExpr:
		not := ""
		if t.Not {
			not = "not "
		}
		if t.Query != nil {
			return "(" + FormatExpr(t.Arg) + " " + not + "in (" + Format(t.Query) + "))"
		}
		parts := make([]string, len(t.List))
		for i, le := range t.List {
			parts[i] = FormatExpr(le)
		}
		return "(" + FormatExpr(t.Arg) + " " + not + "in (" + strings.Join(parts, ", ") + "))"
	case *FuncCall:
		if t.Star {
			return t.Name + "(*)"
		}
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = FormatExpr(a)
		}
		d := ""
		if t.Distinct {
			d = "distinct "
		}
		return t.Name + "(" + d + strings.Join(parts, ", ") + ")"
	case *CaseExpr:
		var b strings.Builder
		b.WriteString("case")
		for _, w := range t.Whens {
			b.WriteString(" when ")
			b.WriteString(FormatExpr(w.Cond))
			b.WriteString(" then ")
			b.WriteString(FormatExpr(w.Then))
		}
		if t.Else != nil {
			b.WriteString(" else ")
			b.WriteString(FormatExpr(t.Else))
		}
		b.WriteString(" end")
		return b.String()
	case *SubqueryExpr:
		return "(" + Format(t.Query) + ")"
	case *ExistsExpr:
		not := ""
		if t.Not {
			not = "not "
		}
		return "(" + not + "exists (" + Format(t.Query) + "))"
	case *QuantExpr:
		q := "any"
		if t.All {
			q = "all"
		}
		return "(" + FormatExpr(t.L) + " " + t.Op + " " + q + " (" + Format(t.Query) + "))"
	}
	return fmt.Sprintf("/* unknown expr %T */", e)
}

// quote renders a string literal, doubling embedded quotes.
func quote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
