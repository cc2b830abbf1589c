package algebrize

import (
	"fmt"
	"strings"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/ast"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
)

// Result is the algebrized form of a query: the operator tree plus the
// ordered output columns and their display names.
type Result struct {
	Rel      algebra.Rel
	OutCols  []algebra.ColID
	OutNames []string
}

// Build algebrizes a parsed query against the catalog, allocating
// column IDs in md.
func Build(cat *catalog.Catalog, md *algebra.Metadata, q ast.Query) (*Result, error) {
	return BuildWithParams(cat, md, q, nil)
}

// BuildWithParams algebrizes a parameterized query: ast.Param nodes in
// q resolve to algebra.Param slots carrying the sniffed values from
// params (used only for costing, never folded into the plan).
func BuildWithParams(cat *catalog.Catalog, md *algebra.Metadata, q ast.Query, params []types.Datum) (*Result, error) {
	b := &builder{cat: cat, md: md, params: params}
	bt, err := b.buildQuery(q, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Rel: bt.rel, OutCols: bt.outCols, OutNames: bt.outNames}, nil
}

type builder struct {
	cat *catalog.Catalog
	md  *algebra.Metadata
	// params holds sniffed literal values for ast.Param slots.
	params []types.Datum
	// anon counts anonymous output columns for naming.
	anon int
	// ctes maps visible WITH-clause names to their definitions; each
	// reference re-builds (inlines) the CTE body.
	ctes map[string]*ast.CTE
}

// built is an algebrized relational expression with its name bindings.
type built struct {
	rel      algebra.Rel
	scope    *scope
	outCols  []algebra.ColID
	outNames []string
}

func (b *builder) buildQuery(q ast.Query, outer *scope) (*built, error) {
	switch t := q.(type) {
	case *ast.SelectStmt:
		return b.buildSelect(t, outer)
	case *ast.UnionStmt:
		return b.buildUnion(t, outer)
	case *ast.ExceptStmt:
		return b.buildExcept(t, outer)
	case *ast.WithStmt:
		return b.buildWith(t, outer)
	}
	return nil, fmt.Errorf("algebrize: unsupported query node %T", q)
}

// buildWith registers the CTEs for the duration of the body build;
// each table reference to a CTE name inlines its definition.
func (b *builder) buildWith(w *ast.WithStmt, outer *scope) (*built, error) {
	saved := b.ctes
	b.ctes = make(map[string]*ast.CTE, len(saved)+len(w.CTEs))
	for k, v := range saved {
		b.ctes[k] = v
	}
	defer func() { b.ctes = saved }()
	for i := range w.CTEs {
		cte := &w.CTEs[i]
		name := strings.ToLower(cte.Name)
		if _, dup := b.ctes[name]; dup {
			return nil, fmt.Errorf("algebrize: duplicate CTE name %q", cte.Name)
		}
		if _, isTable := b.cat.Table(cte.Name); isTable {
			return nil, fmt.Errorf("algebrize: CTE %q shadows a table", cte.Name)
		}
		b.ctes[name] = cte
	}
	return b.buildQuery(w.Body, outer)
}

func (b *builder) buildUnion(u *ast.UnionStmt, outer *scope) (*built, error) {
	left, err := b.buildQuery(u.Left, outer)
	if err != nil {
		return nil, err
	}
	right, err := b.buildQuery(u.Right, outer)
	if err != nil {
		return nil, err
	}
	if len(left.outCols) != len(right.outCols) {
		return nil, fmt.Errorf("algebrize: UNION ALL branches have %d and %d columns",
			len(left.outCols), len(right.outCols))
	}
	out := &built{scope: &scope{parent: outer}}
	un := &algebra.UnionAll{
		Left: left.rel, Right: right.rel,
		LeftCols: left.outCols, RightCols: right.outCols,
	}
	for i, lc := range left.outCols {
		name := left.outNames[i]
		oc := b.md.AddColumn(name, b.md.Type(lc))
		un.OutCols = append(un.OutCols, oc)
		out.outCols = append(out.outCols, oc)
		out.outNames = append(out.outNames, name)
		out.scope.add("", name, oc)
	}
	out.rel = un
	return out, nil
}

// buildExcept compiles EXCEPT ALL into the Difference operator.
func (b *builder) buildExcept(u *ast.ExceptStmt, outer *scope) (*built, error) {
	left, err := b.buildQuery(u.Left, outer)
	if err != nil {
		return nil, err
	}
	right, err := b.buildQuery(u.Right, outer)
	if err != nil {
		return nil, err
	}
	if len(left.outCols) != len(right.outCols) {
		return nil, fmt.Errorf("algebrize: EXCEPT ALL branches have %d and %d columns",
			len(left.outCols), len(right.outCols))
	}
	out := &built{scope: &scope{parent: outer}}
	d := &algebra.Difference{
		Left: left.rel, Right: right.rel,
		LeftCols: left.outCols, RightCols: right.outCols,
	}
	for i, lc := range left.outCols {
		name := left.outNames[i]
		oc := b.md.AddColumn(name, b.md.Type(lc))
		d.OutCols = append(d.OutCols, oc)
		out.outCols = append(out.outCols, oc)
		out.outNames = append(out.outNames, name)
		out.scope.add("", name, oc)
	}
	out.rel = d
	return out, nil
}

func (b *builder) buildSelect(s *ast.SelectStmt, outer *scope) (*built, error) {
	// FROM clause.
	var rel algebra.Rel
	fromScope := &scope{parent: outer}
	if len(s.From) == 0 {
		rel = &algebra.Values{Rows: []algebra.ValuesRow{{}}}
	} else {
		for i, te := range s.From {
			r, sc, err := b.buildTableExpr(te, outer)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				rel = r
			} else {
				rel = &algebra.Join{Kind: algebra.CrossJoin, Left: rel, Right: r}
			}
			fromScope.merge(sc)
		}
	}

	// WHERE clause.
	if s.Where != nil {
		pred, err := b.buildScalar(s.Where, fromScope, nil)
		if err != nil {
			return nil, err
		}
		if err := noAggregates(s.Where); err != nil {
			return nil, err
		}
		rel = &algebra.Select{Input: rel, Filter: pred}
	}

	// Aggregation analysis.
	var aggCalls []*ast.FuncCall
	for _, it := range s.Items {
		if !it.Star {
			aggCalls = append(aggCalls, collectAggs(it.Expr)...)
		}
	}
	if s.Having != nil {
		aggCalls = append(aggCalls, collectAggs(s.Having)...)
	}
	for _, oi := range s.OrderBy {
		aggCalls = append(aggCalls, collectAggs(oi.Expr)...)
	}
	grouped := len(s.GroupBy) > 0 || len(aggCalls) > 0

	evalScope := fromScope
	var ctx *exprCtx
	if grouped {
		var err error
		rel, evalScope, ctx, err = b.buildGroupBy(s, rel, fromScope, aggCalls)
		if err != nil {
			return nil, err
		}
	} else if s.Having != nil {
		return nil, fmt.Errorf("algebrize: HAVING without GROUP BY or aggregates")
	}

	// HAVING clause.
	if s.Having != nil {
		pred, err := b.buildScalar(s.Having, evalScope, ctx)
		if err != nil {
			return nil, err
		}
		rel = &algebra.Select{Input: rel, Filter: pred}
	}

	// Projection.
	out := &built{scope: &scope{parent: outer}}
	proj := &algebra.Project{Input: rel}
	for _, it := range s.Items {
		if it.Star {
			src := evalScope
			for _, c := range src.cols {
				if it.Table != "" && c.table != strings.ToLower(it.Table) {
					continue
				}
				proj.Passthrough.Add(c.id)
				out.outCols = append(out.outCols, c.id)
				out.outNames = append(out.outNames, c.name)
				out.scope.add(c.table, c.name, c.id)
			}
			continue
		}
		e, err := b.buildScalar(it.Expr, evalScope, ctx)
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			name = exprName(it.Expr, &b.anon)
		}
		var id algebra.ColID
		if cr, ok := e.(*algebra.ColRef); ok {
			id = cr.Col
			proj.Passthrough.Add(id)
		} else {
			id = b.md.AddColumn(name, b.typeOf(e))
			proj.Items = append(proj.Items, algebra.ProjItem{Col: id, Expr: e})
		}
		out.outCols = append(out.outCols, id)
		out.outNames = append(out.outNames, name)
		out.scope.add("", name, id)
	}
	if len(out.outCols) == 0 {
		return nil, fmt.Errorf("algebrize: empty select list")
	}

	// ORDER BY needs its keys available in the projection output; hidden
	// keys are added as passthrough/items but not as declared outputs.
	var sortBy []algebra.Ordering
	for _, oi := range s.OrderBy {
		id, err := b.resolveOrderKey(oi.Expr, out, evalScope, ctx, proj)
		if err != nil {
			return nil, err
		}
		sortBy = append(sortBy, algebra.Ordering{Col: id, Desc: oi.Desc})
	}

	rel = simplifyProject(proj)

	// DISTINCT normalizes to GroupBy (paper footnote 1).
	if s.Distinct {
		rel = &algebra.GroupBy{
			Kind:      algebra.VectorGroupBy,
			Input:     rel,
			GroupCols: algebra.NewColSet(out.outCols...),
		}
	}
	if len(sortBy) > 0 {
		rel = &algebra.Sort{Input: rel, By: sortBy}
	}
	if s.Limit != nil {
		rel = &algebra.Top{Input: rel, N: *s.Limit}
	}
	out.rel = rel
	return out, nil
}

// simplifyProject drops a projection that neither computes nor narrows.
func simplifyProject(p *algebra.Project) algebra.Rel {
	if len(p.Items) == 0 && p.Passthrough.Equals(algebra.OutputCols(p.Input)) {
		return p.Input
	}
	return p
}

func (b *builder) resolveOrderKey(e ast.Expr, out *built, evalScope *scope,
	ctx *exprCtx, proj *algebra.Project) (algebra.ColID, error) {
	// An unqualified identifier matching an output alias refers to it.
	if id, ok := e.(*ast.Ident); ok && id.Table == "" {
		for i, n := range out.outNames {
			if strings.EqualFold(n, id.Name) {
				return out.outCols[i], nil
			}
		}
	}
	sc, err := b.buildScalar(e, evalScope, ctx)
	if err != nil {
		return 0, err
	}
	if cr, ok := sc.(*algebra.ColRef); ok {
		proj.Passthrough.Add(cr.Col)
		return cr.Col, nil
	}
	id := b.md.AddColumn(exprName(e, &b.anon), b.typeOf(sc))
	proj.Items = append(proj.Items, algebra.ProjItem{Col: id, Expr: sc})
	return id, nil
}

// buildGroupBy assembles the GroupBy operator and the post-aggregation
// scope/agg map used to evaluate the select list and HAVING.
func (b *builder) buildGroupBy(s *ast.SelectStmt, rel algebra.Rel, fromScope *scope,
	aggCalls []*ast.FuncCall) (algebra.Rel, *scope, *exprCtx, error) {

	var groupCols algebra.ColSet
	ctx := &exprCtx{aggs: make(map[*ast.FuncCall]algebra.ColID, len(aggCalls)),
		groups: make(map[string]algebra.ColID)}
	postScope := &scope{parent: fromScope.parent}
	prePro := &algebra.Project{Input: rel, Passthrough: algebra.OutputCols(rel)}
	needPre := false
	for _, ge := range s.GroupBy {
		e, err := b.buildScalar(ge, fromScope, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := noAggregates(ge); err != nil {
			return nil, nil, nil, err
		}
		if cr, ok := e.(*algebra.ColRef); ok {
			groupCols.Add(cr.Col)
			// keep original names for the grouped column
			for _, c := range fromScope.cols {
				if c.id == cr.Col {
					postScope.add(c.table, c.name, c.id)
				}
			}
			continue
		}
		// Computed grouping expression: project it first.
		name := exprName(ge, &b.anon)
		id := b.md.AddColumn(name, b.typeOf(e))
		prePro.Items = append(prePro.Items, algebra.ProjItem{Col: id, Expr: e})
		needPre = true
		groupCols.Add(id)
		postScope.add("", name, id)
		ctx.groups[astKey(ge)] = id
	}
	if needPre {
		rel = prePro
	}

	gb := &algebra.GroupBy{Input: rel, GroupCols: groupCols}
	if groupCols.Empty() {
		gb.Kind = algebra.ScalarGroupBy
	} else {
		gb.Kind = algebra.VectorGroupBy
	}
	for _, fc := range aggCalls {
		item, err := b.buildAggItem(fc, fromScope)
		if err != nil {
			return nil, nil, nil, err
		}
		gb.Aggs = append(gb.Aggs, item)
		ctx.aggs[fc] = item.Col
	}
	return gb, postScope, ctx, nil
}

func (b *builder) buildAggItem(fc *ast.FuncCall, fromScope *scope) (algebra.AggItem, error) {
	var fn algebra.AggFunc
	switch fc.Name {
	case "count":
		if fc.Star {
			fn = algebra.AggCountStar
		} else {
			fn = algebra.AggCount
		}
	case "sum":
		fn = algebra.AggSum
	case "avg":
		fn = algebra.AggAvg
	case "min":
		fn = algebra.AggMin
	case "max":
		fn = algebra.AggMax
	default:
		return algebra.AggItem{}, fmt.Errorf("algebrize: unknown aggregate %q", fc.Name)
	}
	item := algebra.AggItem{Func: fn, Distinct: fc.Distinct}
	var typ types.Kind
	if fn == algebra.AggCountStar {
		typ = types.Int
	} else {
		if len(fc.Args) != 1 {
			return algebra.AggItem{}, fmt.Errorf("algebrize: %s takes one argument", fc.Name)
		}
		arg, err := b.buildScalar(fc.Args[0], fromScope, nil)
		if err != nil {
			return algebra.AggItem{}, err
		}
		if len(collectAggs(fc.Args[0])) > 0 {
			return algebra.AggItem{}, fmt.Errorf("algebrize: nested aggregates")
		}
		item.Arg = arg
		switch fn {
		case algebra.AggCount:
			typ = types.Int
		case algebra.AggAvg:
			typ = types.Float
		default:
			typ = b.typeOf(arg)
		}
	}
	item.Col = b.md.AddColumn(fc.Name, typ)
	return item, nil
}

func (b *builder) buildTableExpr(te ast.TableExpr, outer *scope) (algebra.Rel, *scope, error) {
	switch t := te.(type) {
	case *ast.TableName:
		if cte, ok := b.ctes[strings.ToLower(t.Name)]; ok {
			alias := t.Alias
			if alias == "" {
				alias = cte.Name
			}
			return b.buildTableExpr(&ast.DerivedTable{
				Query: cte.Query, Alias: alias, ColAliases: cte.ColAliases,
			}, outer)
		}
		tbl, ok := b.cat.Table(t.Name)
		if !ok {
			return nil, nil, fmt.Errorf("algebrize: unknown table %q", t.Name)
		}
		alias := t.Alias
		if alias == "" {
			alias = tbl.Name
		}
		get := &algebra.Get{Table: tbl.Name}
		sc := &scope{parent: outer}
		for _, col := range tbl.Columns {
			id := b.md.AddTableColumn(tbl.Name, strings.ToLower(alias), strings.ToLower(col.Name),
				col.Type, !col.Nullable, len(get.Cols))
			get.Cols = append(get.Cols, id)
			sc.add(alias, col.Name, id)
		}
		for _, k := range tbl.Key {
			get.KeyCols.Add(get.Cols[k])
		}
		return get, sc, nil
	case *ast.DerivedTable:
		bt, err := b.buildQuery(t.Query, outer)
		if err != nil {
			return nil, nil, err
		}
		if len(t.ColAliases) > 0 && len(t.ColAliases) != len(bt.outCols) {
			return nil, nil, fmt.Errorf("algebrize: derived table %s declares %d column aliases for %d columns",
				t.Alias, len(t.ColAliases), len(bt.outCols))
		}
		sc := &scope{parent: outer}
		for i, id := range bt.outCols {
			name := bt.outNames[i]
			if len(t.ColAliases) > 0 {
				name = t.ColAliases[i]
			}
			sc.add(t.Alias, name, id)
		}
		return bt.rel, sc, nil
	case *ast.JoinExpr:
		left, lsc, err := b.buildTableExpr(t.Left, outer)
		if err != nil {
			return nil, nil, err
		}
		right, rsc, err := b.buildTableExpr(t.Right, outer)
		if err != nil {
			return nil, nil, err
		}
		sc := &scope{parent: outer}
		sc.merge(lsc)
		sc.merge(rsc)
		j := &algebra.Join{Left: left, Right: right}
		switch t.Kind {
		case ast.JoinCross:
			j.Kind = algebra.CrossJoin
		case ast.JoinInner:
			j.Kind = algebra.InnerJoin
		case ast.JoinLeftOuter:
			j.Kind = algebra.LeftOuterJoin
		}
		if t.On != nil {
			on, err := b.buildScalar(t.On, sc, nil)
			if err != nil {
				return nil, nil, err
			}
			j.On = on
		}
		return j, sc, nil
	}
	return nil, nil, fmt.Errorf("algebrize: unsupported FROM item %T", te)
}

// collectAggs finds aggregate calls in e without descending into
// subqueries (their aggregates belong to the inner query block).
func collectAggs(e ast.Expr) []*ast.FuncCall {
	var out []*ast.FuncCall
	var walk func(ast.Expr)
	walk = func(x ast.Expr) {
		switch t := x.(type) {
		case nil:
		case *ast.FuncCall:
			if isAggName(t.Name) {
				out = append(out, t)
				return
			}
			for _, a := range t.Args {
				walk(a)
			}
		case *ast.BinaryExpr:
			walk(t.L)
			walk(t.R)
		case *ast.UnaryExpr:
			walk(t.Arg)
		case *ast.IsNullExpr:
			walk(t.Arg)
		case *ast.BetweenExpr:
			walk(t.Arg)
			walk(t.Lo)
			walk(t.Hi)
		case *ast.LikeExpr:
			walk(t.L)
			walk(t.R)
		case *ast.InExpr:
			walk(t.Arg)
			for _, a := range t.List {
				walk(a)
			}
		case *ast.CaseExpr:
			for _, w := range t.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			walk(t.Else)
		case *ast.QuantExpr:
			walk(t.L)
		}
	}
	walk(e)
	return out
}

func isAggName(n string) bool {
	switch n {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

func noAggregates(e ast.Expr) error {
	if len(collectAggs(e)) > 0 {
		return fmt.Errorf("algebrize: aggregate not allowed here")
	}
	return nil
}

func exprName(e ast.Expr, anon *int) string {
	switch t := e.(type) {
	case *ast.Ident:
		return strings.ToLower(t.Name)
	case *ast.FuncCall:
		return t.Name
	}
	*anon++
	return fmt.Sprintf("col%d", *anon)
}
