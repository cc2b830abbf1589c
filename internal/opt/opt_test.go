package opt

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/sql/parser"
	"orthoq/internal/stats"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

// prep parses, algebrizes and normalizes sql against the store.
func prep(t testing.TB, st *storage.Store, sql string) (*algebra.Metadata, algebra.Rel, []algebra.ColID) {
	t.Helper()
	q, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	md := algebra.NewMetadata()
	res, err := algebrize.Build(st.Catalog, md, q)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := core.Normalize(md, res.Rel, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return md, rel, res.OutCols
}

func tinyTPCH(t testing.TB) *storage.Store {
	t.Helper()
	st, err := tpch.Generate(0.001, 7)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runPlan(t testing.TB, st *storage.Store, md *algebra.Metadata, plan algebra.Rel, out []algebra.ColID) []string {
	t.Helper()
	ctx := exec.NewContext(st, md)
	ctx.RowBudget = 50_000_000
	res, err := exec.Run(ctx, plan, out)
	if err != nil {
		t.Fatalf("run: %v\nplan:\n%s", err, algebra.FormatRel(md, plan))
	}
	keys := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, d := range row {
			parts[j] = d.String()
		}
		keys[i] = strings.Join(parts, "|")
	}
	sort.Strings(keys)
	return keys
}

// TestOptimizePreservesResults: for every benchmark query, the
// optimized plan must return the same rows as the normalized plan.
func TestOptimizePreservesResults(t *testing.T) {
	st := tinyTPCH(t)
	sc := stats.Collect(st)
	for _, name := range []string{"Q1", "Q2", "Q4", "Q11", "Q15", "Q16", "Q17", "Q18", "Q20", "Q21", "Q22"} {
		sql := tpch.Queries[name]
		md, rel, out := prep(t, st, sql)
		base := runPlan(t, st, md, rel, out)
		o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
		r := o.Optimize(rel)
		got := runPlan(t, st, md, r.Plan, out)
		if fmt.Sprint(base) != fmt.Sprint(got) {
			t.Errorf("%s: optimized plan changed results\nbase: %v\nopt:  %v\nplan:\n%s",
				name, base, got, algebra.FormatRel(md, r.Plan))
		}
		if r.Cost > 0 && r.Explored == 0 {
			t.Errorf("%s: no exploration", name)
		}
	}
}

// TestOptimizerLowersCost: the chosen plan never costs more than the
// normalized plan.
func TestOptimizerLowersCost(t *testing.T) {
	st := tinyTPCH(t)
	sc := stats.Collect(st)
	for _, name := range []string{"Q2", "Q17", "Q18"} {
		md, rel, _ := prep(t, st, tpch.Queries[name])
		o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
		before := o.Cost(rel)
		r := o.Optimize(rel)
		if r.Cost > before+1e-6 {
			t.Errorf("%s: cost went up: %.0f -> %.0f", name, before, r.Cost)
		}
	}
}

// TestQ17FindsSegmentOrPushedAggregate: with the full rule set, Q17's
// plan must use one of the paper's §3 shapes — a pushed-down
// per-partkey aggregate or a SegmentApply — rather than aggregating
// the whole self-join.
func TestQ17FindsBetterShape(t *testing.T) {
	st := tinyTPCH(t)
	sc := stats.Collect(st)
	md, rel, _ := prep(t, st, tpch.Queries["Q17"])
	o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
	r := o.Optimize(rel)
	plan := algebra.FormatRel(md, r.Plan)
	if !strings.Contains(plan, "SegmentApply") &&
		!strings.Contains(plan, "LGb") &&
		!strings.Contains(plan, "Apply") &&
		!planHasAggBelowJoin(md, r.Plan) {
		t.Errorf("Q17 plan uses none of the §3 strategies:\n%s", plan)
	}
}

func planHasAggBelowJoin(md *algebra.Metadata, r algebra.Rel) bool {
	found := false
	algebra.VisitRel(r, func(n algebra.Rel) bool {
		if j, ok := n.(*algebra.Join); ok {
			for _, side := range []algebra.Rel{j.Left, j.Right} {
				algebra.VisitRel(side, func(m algebra.Rel) bool {
					if _, ok := m.(*algebra.GroupBy); ok {
						found = true
					}
					return !found
				})
			}
		}
		return !found
	})
	return found
}

// TestCorrelatedReintroduction: a highly selective outer with an
// indexed inner should prefer the Apply (lookup) plan.
func TestCorrelatedReintroduction(t *testing.T) {
	st := tinyTPCH(t)
	sc := stats.Collect(st)
	// One customer joined against all orders: lookup wins.
	md, rel, out := prep(t, st, `
		select c_name, o_orderkey from customer join orders on o_custkey = c_custkey
		where c_custkey = 5`)
	o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
	r := o.Optimize(rel)
	plan := algebra.FormatRel(md, r.Plan)
	if !strings.Contains(plan, "Apply") {
		t.Errorf("selective outer should reintroduce correlated lookup:\n%s", plan)
	}
	// And results must match the join plan.
	base := runPlan(t, st, md, rel, out)
	got := runPlan(t, st, md, r.Plan, out)
	if fmt.Sprint(base) != fmt.Sprint(got) {
		t.Errorf("lookup plan changed results")
	}
}

// TestJoinReorderRules sanity-check commute/rotate algebra.
func TestJoinReorderRules(t *testing.T) {
	st := tinyTPCH(t)
	md, rel, out := prep(t, st, `
		select c_name, o_orderkey, n_name
		from customer, orders, nation
		where o_custkey = c_custkey and c_nationkey = n_nationkey and o_totalprice > 1000`)
	var joins []*algebra.Join
	algebra.VisitRel(rel, func(n algebra.Rel) bool {
		if j, ok := n.(*algebra.Join); ok {
			joins = append(joins, j)
		}
		return true
	})
	if len(joins) < 2 {
		t.Fatalf("expected nested joins, got %d:\n%s", len(joins), algebra.FormatRel(md, rel))
	}
	base := runPlan(t, st, md, rel, out)
	// Exercise each rewrite and confirm equivalence.
	checked := 0
	for _, j := range joins {
		// A rotation takes the columns of the new lower join's inputs.
		rotate := func(slot int) func(*algebra.Join) (algebra.Rel, bool) {
			return func(j *algebra.Join) (algebra.Rel, bool) {
				lower, ok := j.Inputs()[slot].(*algebra.Join)
				if !ok {
					return nil, false
				}
				return rotateJoin(j, slot, algebra.OutputCols(lower.Inputs()[1-slot]).Union(algebra.OutputCols(j.Inputs()[1-slot])))
			}
		}
		for _, rw := range []func(*algebra.Join) (algebra.Rel, bool){commuteJoin, rotate(0), rotate(1)} {
			nr, ok := rw(j)
			if !ok {
				continue
			}
			alt := replaceNode(rel, j, nr)
			got := runPlan(t, st, md, alt, out)
			if fmt.Sprint(base) != fmt.Sprint(got) {
				t.Errorf("join rewrite changed results:\n%s", algebra.FormatRel(md, alt))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no join rewrites fired")
	}
}

// replaceNode substitutes old with repl (by identity) in the tree.
func replaceNode(root algebra.Rel, old, repl algebra.Rel) algebra.Rel {
	if root == old {
		return repl
	}
	ins := root.Inputs()
	if len(ins) == 0 {
		return root
	}
	kids := make([]algebra.Rel, len(ins))
	changed := false
	for i, c := range ins {
		kids[i] = replaceNode(c, old, repl)
		if kids[i] != c {
			changed = true
		}
	}
	if !changed {
		return root
	}
	return root.WithInputs(kids)
}

// ruleSet is a Config.DisableRules set naming every rule in names.
func ruleSet(names []string) map[string]bool {
	set := map[string]bool{}
	for _, name := range names {
		set[name] = true
	}
	return set
}

// TestAblationFlagsRespected: disabling a rule family removes its
// shapes from the search space.
func TestAblationFlagsRespected(t *testing.T) {
	st := tinyTPCH(t)
	sc := stats.Collect(st)
	md, rel, _ := prep(t, st, tpch.Queries["Q17"])
	o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc, DisableRules: ruleSet(FamilySegmentApply)}
	r := o.Optimize(rel)
	if strings.Contains(algebra.FormatRel(md, r.Plan), "SegmentApply") {
		t.Error("SegmentApply appeared despite being disabled")
	}

	md2, rel2, _ := prep(t, st, tpch.Queries["Q17"])
	o2 := &Optimizer{Md: md2, Cat: st.Catalog, Stats: sc, DisableRules: ruleSet(RuleNames())}
	r2 := o2.Optimize(rel2)
	if algebra.FormatRel(md2, r2.Plan) != algebra.FormatRel(md2, rel2) {
		t.Error("all-disabled optimizer must return the input plan")
	}
}

// TestCostModelOrdersScanVsSeek: the cost model must prefer a seek for
// a point lookup and a scan for a full read.
func TestCostModelOrdersScanVsSeek(t *testing.T) {
	st := tinyTPCH(t)
	sc := stats.Collect(st)
	md, point, _ := prep(t, st, `select o_orderkey from orders where o_orderkey = 5`)
	pointCost := (&Optimizer{Md: md, Cat: st.Catalog, Stats: sc}).Cost(point)

	md2, full, _ := prep(t, st, `select o_orderkey from orders`)
	fullCost := (&Optimizer{Md: md2, Cat: st.Catalog, Stats: sc}).Cost(full)
	if pointCost*10 > fullCost {
		t.Errorf("point lookup (%.1f) should be far cheaper than scan (%.1f)", pointCost, fullCost)
	}
}

// TestRangeSelectivityCombines: a lower and upper bound on the same
// column must combine as a range, not multiply independently.
func TestRangeSelectivityCombines(t *testing.T) {
	st := tinyTPCH(t)
	sc := stats.Collect(st)
	md, narrow, _ := prep(t, st, `select o_orderkey from orders
		where o_orderdate >= date '1993-07-01' and o_orderdate < date '1993-10-01'`)
	est := estimateOf(&Optimizer{Md: md, Cat: st.Catalog, Stats: sc}, narrow)
	total := float64(sc.Table("orders").RowCount)
	frac := est.rows / total
	// Three months out of ~79: expect a few percent, far below the
	// ~20% an independence-assumption estimate would give.
	if frac > 0.12 || frac <= 0 {
		t.Errorf("range selectivity = %.3f, want a few percent", frac)
	}
}

// TestEstimateFormatter smoke-checks the cost-annotated plan renderer
// on a plan with Apply and SegmentApply scopes, and that the estimates
// table it renders has an entry for every node of the plan.
func TestEstimateFormatter(t *testing.T) {
	st := tinyTPCH(t)
	sc := stats.Collect(st)
	md, rel, _ := prep(t, st, tpch.Queries["Q17"])
	o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
	r := o.Optimize(rel)
	est := PlanEstimates(md, st.Catalog, sc, r.Plan)
	out := FormatWithEstimates(md, est, r.Plan, 0)
	if !strings.Contains(out, "rows≈") || !strings.Contains(out, "cost≈") {
		t.Errorf("estimates missing:\n%s", out)
	}
	algebra.VisitRel(r.Plan, func(n algebra.Rel) bool {
		if _, ok := est[n]; !ok {
			t.Errorf("no estimate for %s", algebra.FormatNode(md, algebra.FromScratch{Of: n}, n))
		}
		return true
	})
}

// TestAliasedTableUsesStats: a column's statistics are found by the
// table it is stored in, not by the name the query calls that table, so
// aliasing a table reference does not change an estimate.
func TestAliasedTableUsesStats(t *testing.T) {
	st := tinyTPCH(t)
	sc := stats.Collect(st)
	estimate := func(sql string) estimate {
		md, rel, _ := prep(t, st, sql)
		return estimateOf(&Optimizer{Md: md, Cat: st.Catalog, Stats: sc}, rel)
	}
	for _, q := range [][2]string{
		{`select l_quantity from lineitem where l_orderkey = 7`,
			`select l1.l_quantity from lineitem l1 where l1.l_orderkey = 7`},
		{`select o_orderkey, count(*) from orders, lineitem where l_orderkey = o_orderkey and l_shipdate < date '1995-01-01' group by o_orderkey`,
			`select o.o_orderkey, count(*) from orders o, lineitem l where l.l_orderkey = o.o_orderkey and l.l_shipdate < date '1995-01-01' group by o.o_orderkey`},
	} {
		if plain, aliased := estimate(q[0]), estimate(q[1]); plain != aliased {
			t.Errorf("estimate %+v unaliased, %+v aliased:\n%s", plain, aliased, q[1])
		}
	}
}
