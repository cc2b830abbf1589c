package opt

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/exec"
	"orthoq/internal/reference"
	"orthoq/internal/sql/types"
	"orthoq/internal/stats"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

// estimateOf is o's estimate of r as a whole plan.
func estimateOf(o *Optimizer, r algebra.Rel) estimate {
	m := newMemo(o)
	return m.c.cost(m.intern(r, nil).group)
}

// exploredMemo enters a case's plans the way Optimize does and explores
// to the end; it returns the memo and its root group.
func exploredMemo(t testing.TB, st *storage.Store, sc *stats.Collection, c goldenCase) (*memo, *group) {
	t.Helper()
	md, rel, seeds := goldenInputs(t, st, c)
	m := newMemo(&Optimizer{Md: md, Cat: st.Catalog, Stats: sc})
	root := m.intern(rel, nil).group
	for _, s := range seeds {
		root.out = root.out.Intersection(algebra.OutputCols(s))
		m.intern(s, root)
	}
	m.explore()
	return m, root.find()
}

// dump renders the memo group by group: each standing group with its
// contract and members, a member as its operator's line over the
// numbers of its input groups, with the rule that introduced it.
func (m *memo) dump() string {
	var b strings.Builder
	for _, g := range m.groups {
		if g.into != nil {
			continue
		}
		fmt.Fprintf(&b, "G%d out=%v outer=%v\n", g.id, g.out, g.outer)
		for _, e := range g.exprs {
			if e.dead {
				continue
			}
			fmt.Fprintf(&b, "  %s", algebra.FormatNode(m.o.Md, e, e.op))
			for _, k := range e.inputs() {
				fmt.Fprintf(&b, " G%d", k.id)
			}
			if e.by != nil {
				fmt.Fprintf(&b, "  <- %s #%d", e.by.rule, e.by.seq)
			}
			if e.wide {
				b.WriteString(" (wide)")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

var dumpQuery = flag.String("memo", "", "TestDumpMemo: the TPC-H query (Q2, ...) or SQL text whose memo to print")

// TestDumpMemo prints the explored memo of one seeded search at the
// golden scale factor: go test ./internal/opt -run TestDumpMemo -memo Q17 -v
func TestDumpMemo(t *testing.T) {
	if *dumpQuery == "" {
		t.Skip("no -memo query")
	}
	sql, ok := tpch.Queries[*dumpQuery]
	if !ok {
		sql = *dumpQuery
	}
	st, err := goldenStore()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := exploredMemo(t, st, stats.Collect(st), goldenCase{name: *dumpQuery, seeded: true, sql: sql})
	t.Logf("%d groups, %d expressions, %d firings, truncated=%t\n%s", m.standing, m.live, m.fired, m.truncated, m.dump())
}

// parentCosts reads testdata/parent_costs.golden: case header → the
// cost of the parent's plan and of the normalized plan it started from.
func parentCosts(t *testing.T) map[string][2]float64 {
	t.Helper()
	data, err := os.ReadFile("testdata/parent_costs.golden")
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string][2]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		head, rest, ok := strings.Cut(line, " cost=")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		var c [2]float64
		for i, hex := range strings.SplitN(rest, " normalized=", 2) {
			if c[i], err = strconv.ParseFloat(hex, 64); err != nil {
				t.Fatal(err)
			}
		}
		costs[head] = c
	}
	return costs
}

// TestPlansNoWorseThanParent: for every pinned search, the plan the
// memo returns, priced from scratch, costs no more than the plan the
// budgeted whole-plan search of the parent commit returned. The two are
// comparable where the cost model has not moved since, which a search's
// own starting point shows: a case whose normalized plan the model no
// longer prices as the parent did (since the memo landed, statistics are
// found for aliased tables and a threshold on an aggregate is estimated
// from the aggregated column) is skipped, and most must remain.
func TestPlansNoWorseThanParent(t *testing.T) {
	st, err := goldenStore()
	if err != nil {
		t.Fatal(err)
	}
	sc := stats.Collect(st)
	parent := parentCosts(t)
	_, cases := readGolden(t)
	better, moved := 0, 0
	for _, c := range cases {
		md, rel, seeds := goldenInputs(t, st, c)
		o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
		want, ok := parent[fmt.Sprintf("%s seed=%t", c.name, c.seeded)]
		if !ok {
			t.Errorf("%s seed=%t: no parent cost recorded", c.name, c.seeded)
			continue
		}
		if o.Cost(rel) != want[1] {
			moved++
			continue
		}
		r := o.Optimize(rel, seeds...)
		if r.Cost > want[0]*(1+1e-9) {
			t.Errorf("%s seed=%t: cost %.3f, the parent's plan cost %.3f\n%s", c.name, c.seeded, r.Cost, want[0],
				FormatWithEstimates(md, PlanEstimates(md, st.Catalog, sc, r.Plan), r.Plan, 0))
		}
		if r.Cost < want[0]*(1-1e-9) {
			better++
		}
	}
	if moved > len(cases)/4 {
		t.Errorf("the cost model has moved under %d of %d cases; the comparison has lost its subject", moved, len(cases))
	}
	t.Logf("%d of %d searches found a cheaper plan than the parent; %d not compared, the model having moved", better, len(cases)-moved, moved)
}

// TestSearchExhausts: every pinned search ends because no binding is
// pending — the size guard is not what stopped it, and is not close.
func TestSearchExhausts(t *testing.T) {
	st, err := goldenStore()
	if err != nil {
		t.Fatal(err)
	}
	sc := stats.Collect(st)
	_, cases := readGolden(t)
	largest := 0
	for _, c := range cases {
		md, rel, seeds := goldenInputs(t, st, c)
		r := (&Optimizer{Md: md, Cat: st.Catalog, Stats: sc}).Optimize(rel, seeds...)
		if r.Truncated || r.Explored*4 > maxExprs {
			t.Errorf("%s seed=%t: %d expressions against a guard of %d (truncated: %t)", c.name, c.seeded, r.Explored, maxExprs, r.Truncated)
		}
		largest = max(largest, r.Explored)
	}
	t.Logf("largest memo: %d expressions", largest)
}

// rowKeys renders rows for comparison as a bag: floats at 9 significant
// digits (members of a group sum in different orders), sorted.
func rowKeys(rows []types.Row) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		var b strings.Builder
		for _, d := range row {
			if !d.IsNull() && d.Kind() == types.Float {
				fmt.Fprintf(&b, "%.9g|", d.Float())
			} else {
				b.WriteString(d.String() + "|")
			}
		}
		keys[i] = b.String()
	}
	slices.Sort(keys)
	return keys
}

// inContext returns a whole plan that contains the expression e: e over
// the representatives of its input groups, under a shortest chain of
// expressions from e's group up to the root group, their other inputs
// representatives. via maps each group to the expression and input slot
// it was first reached through from the root; ok is false for a group
// the root does not reach (what a withheld rewrite left behind).
func (m *memo) inContext(e *mexpr, root *group, via map[*group]binding) (algebra.Rel, bool) {
	tree := m.relOf(e)
	for g := e.group.find(); g != root; {
		up, ok := via[g]
		if !ok {
			return nil, false
		}
		kids := up.p.inputs()
		ins := make([]algebra.Rel, len(kids))
		for i, k := range kids {
			ins[i] = k.exprs[0].rel
		}
		ins[up.slot] = tree
		tree, g = up.p.op.WithInputs(ins), up.p.group.find()
	}
	return tree, true
}

// reach maps every group the root reaches to the expression and slot it
// is first reached through, breadth first.
func reach(root *group) map[*group]binding {
	via := map[*group]binding{}
	for queue := []*group{root}; len(queue) > 0; queue = queue[1:] {
		for _, p := range queue[0].exprs {
			if p.dead {
				continue
			}
			for slot, k := range p.inputs() {
				if _, seen := via[k]; !seen && k != root {
					via[k] = binding{p: p, slot: slot}
					queue = append(queue, k)
				}
			}
		}
	}
	return via
}

// exposesPartials reports whether r's rows are partial aggregates: a
// LocalGroupBy with no global GroupBy above it inside r.
func exposesPartials(r algebra.Rel) bool {
	switch t := r.(type) {
	case *algebra.GroupBy:
		if t.Kind == algebra.LocalGroupBy {
			return true
		}
		if len(t.Aggs) > 0 && t.Aggs[0].Global {
			return false
		}
	}
	return slices.ContainsFunc(r.Inputs(), exposesPartials)
}

// TestGroupsAreSound holds the memo to the reference evaluator: in the
// explored memos of the TPC-H queries, the Q1 spellings and a slice of
// the fuzz corpus, the members of a group — each materialised over the
// representatives of its input groups, as rules see it — produce the
// same bag of rows as the group's representative on the columns the
// group promises, and deliver the order it promises. A wrong binding,
// an unsound merge or a rule that does not preserve its input's rows
// fails here on the group it corrupts, not in a benchmark answer.
//
// A group that cannot be evaluated alone — it reads columns or a segment
// from outside itself, or its rows are the partial aggregates of a
// LocalGroupBy, which are the same relation only under the global
// GroupBy that combines them — is compared in context instead: the
// member under a chain of expressions up to the root must give the
// answer the normalized plan gives.
func TestGroupsAreSound(t *testing.T) {
	// The reference evaluator iterates where the engine hashes; a store
	// of 75 customers keeps 1 500 evaluations to some seconds.
	st, err := tpch.Generate(0.0005, 7)
	if err != nil {
		t.Fatal(err)
	}
	sc := stats.Collect(st)
	const (
		perGroup = 4  // members compared per group
		perCase  = 12 // whole plans evaluated per query for the in-context comparison
	)
	_, cases := readGolden(t)
	alone, inContext := 0, 0
	for _, c := range cases {
		if !c.seeded || testing.Short() && strings.HasPrefix(c.name, "fuzz") {
			continue
		}
		m, root := exploredMemo(t, st, sc, c)
		ev := &reference.Evaluator{Store: st}
		equal := func(g *group, e *mexpr, tree algebra.Rel, cols []algebra.ColID, want []string) {
			t.Helper()
			got, err := ev.Eval(tree, cols)
			if err != nil {
				t.Fatalf("%s: G%d member by %s: %v\n%s", c.name, g.id, e.by.rule, err, algebra.FormatRel(m.o.Md, tree))
			}
			if !slices.Equal(want, rowKeys(got)) {
				t.Fatalf("%s: G%d holds two different relations: its member by %s gives %d rows on %v where %d are wanted\n--- representative\n%s--- evaluated\n%s",
					c.name, g.id, e.by.rule, len(got), cols, len(want), algebra.FormatRel(m.o.Md, g.exprs[0].rel), algebra.FormatRel(m.o.Md, tree))
			}
		}
		type member struct {
			g *group
			e *mexpr
		}
		var dependent []member
		for _, g := range m.groups {
			if g.into != nil || len(g.exprs) < 2 {
				continue
			}
			// The last members are the deepest derivations; take some from
			// both ends.
			picked := g.exprs[1:]
			if len(picked) > perGroup {
				picked = append(slices.Clone(picked[:perGroup/2]), picked[len(picked)-perGroup/2:]...)
			}
			picked = slices.DeleteFunc(slices.Clone(picked), func(e *mexpr) bool { return e.dead })
			for _, e := range picked {
				tree := m.relOf(e)
				if !algebra.OrderCovers(algebra.DeliveredOrder(tree), g.order) {
					t.Fatalf("%s: G%d promises order %v, its member by %s delivers %v", c.name, g.id, g.order, e.by.rule, algebra.DeliveredOrder(tree))
				}
				if free := algebra.OuterRefs(tree); !free.SubsetOf(g.outer) {
					t.Fatalf("%s: G%d has outer references %v, its member by %s has %v", c.name, g.id, g.outer, e.by.rule, free)
				}
			}
			if !g.outer.Empty() || g.segRefs || exposesPartials(g.exprs[0].rel) {
				for _, e := range picked {
					dependent = append(dependent, member{g, e})
				}
				continue
			}
			cols := g.out.Ordered()
			want, err := ev.Eval(g.exprs[0].rel, cols)
			if err != nil {
				t.Fatalf("%s: G%d representative: %v", c.name, g.id, err)
			}
			for _, e := range picked {
				equal(g, e, e.rel, cols, rowKeys(want))
				alone++
			}
		}
		if len(dependent) == 0 {
			continue
		}
		cols := root.out.Ordered()
		answer, err := ev.Eval(root.exprs[0].rel, cols)
		if err != nil {
			t.Fatalf("%s: normalized plan: %v", c.name, err)
		}
		via := reach(root)
		for i := 0; i < len(dependent); i += max(1, len(dependent)/perCase) {
			if tree, ok := m.inContext(dependent[i].e, root, via); ok {
				equal(dependent[i].g, dependent[i].e, tree, cols, rowKeys(answer))
				inContext++
			}
		}
	}
	if !testing.Short() && (alone < 1000 || inContext < 60) {
		t.Errorf("compared %d members alone and %d in context; the test lost its subjects", alone, inContext)
	}
	t.Logf("compared %d members with their representatives and %d in context with the normalized plan", alone, inContext)
}

// TestMemoBounds pins the size of seeded Q2's memo — the search that
// spent 1 200 steps entering 66 617 subtree classes as a whole-plan
// search and was not done at 20 000 — to the order of 10³ expressions,
// and the work per expression: a binding builds one tree node, a
// duplicate rewrite leaves nothing behind.
func TestMemoBounds(t *testing.T) {
	st, err := goldenStore()
	if err != nil {
		t.Fatal(err)
	}
	sc := stats.Collect(st)
	c := goldenCase{name: "Q2", seeded: true, sql: tpch.Queries["Q2"]}
	// Optimize mints columns in its Metadata, so every run gets inputs
	// of its own, prepared outside the measured function.
	const runs = 2
	type input struct {
		o     *Optimizer
		rel   algebra.Rel
		seeds []algebra.Rel
	}
	var inputs []input
	for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
		md, rel, seeds := goldenInputs(t, st, c)
		inputs = append(inputs, input{&Optimizer{Md: md, Cat: st.Catalog, Stats: sc}, rel, seeds})
	}
	var r *Result
	allocs := testing.AllocsPerRun(runs, func() {
		in := inputs[0]
		inputs = inputs[1:]
		r = in.o.Optimize(in.rel, in.seeds...)
	})
	if r.Truncated || r.Explored > 4000 || r.Groups > 500 {
		t.Errorf("Q2: %d expressions in %d groups (truncated: %t), want at most 4000 in 500", r.Explored, r.Groups, r.Truncated)
	}
	if r.Costed > 4*r.Explored || r.Materialized > 15*r.Explored {
		t.Errorf("Q2: %d estimates derived, %d tree nodes built for %d expressions", r.Costed, r.Materialized, r.Explored)
	}
	if allocs > 200000 {
		t.Errorf("%.0f allocations per Optimize, want at most 200000", allocs)
	}
	t.Logf("Q2: %d expressions, %d groups, %d firings, %d costed, %d materialized, %.0f allocs",
		r.Explored, r.Groups, r.Generated, r.Costed, r.Materialized, allocs)
}

// TestMemoMatchesFromScratch: what the memo holds for a plan entered in
// it — every group's output columns, outer references, delivered order
// and estimates — equals, bit for bit, what the tree gives from scratch
// (the algebra package's tree-walking derivations, and refCoster), for
// every subtree of every golden plan. Each subtree is costed twice, in
// the empty scope and in the scope its position in the plan puts it in,
// with one memo shared across all plans of the query, so an estimate
// cached in one scope and wrongly reused in another shows as a
// difference. No golden winner keeps a SegmentApply at this scale
// factor, so the SegmentApply members of the explored memo are walked
// as well, as the binding trees rules see.
func TestMemoMatchesFromScratch(t *testing.T) {
	bindScoped, segScoped, ordered := 0, 0, 0
	goldenPlans(t, func(name string, o *Optimizer, plans []algebra.Rel) {
		explored := newMemo(o)
		root := explored.intern(plans[0], nil).group
		for _, seed := range plans[2:] {
			explored.intern(seed, root)
		}
		explored.explore()
		for _, g := range explored.groups {
			for _, e := range g.exprs {
				if _, ok := e.op.(*algebra.SegmentApply); ok && g.into == nil && g.outer.Empty() && !g.segRefs {
					plans = append(plans, explored.relOf(e))
				}
			}
		}

		tab := newMemo(o)
		ref := refCoster{&coster{md: o.Md, cat: o.Cat, st: o.Stats}}
		// enter puts both costers in the same scope.
		enter := func(bound algebra.ColSet, segRows []float64) {
			ref.bound, ref.segRows = bound, segRows
			tab.c.bound, tab.c.segRows = bound, segRows
		}
		var walk func(g *group)
		walk = func(g *group) {
			// The memo is asked first: nothing it answers may need the tree.
			s := g.exprs[0]
			bound, segRows := ref.bound, ref.segRows
			enter(algebra.ColSet{}, nil)
			empty := tab.c.cost(g)
			enter(bound, segRows)
			own := tab.c.cost(g)

			n := tab.relOf(s)
			at := func() string { return " at\n" + algebra.FormatRel(o.Md, n) }
			if len(g.exprs) != 1 {
				t.Fatalf("%s: a memo that was only entered in has a group of %d%s", name, len(g.exprs), at())
			}
			if want := algebra.OutputCols(n); !g.out.Equals(want) {
				t.Errorf("%s: OutputCols = %v, want %v%s", name, g.out, want, at())
			}
			if want := algebra.OuterRefs(n); !g.outer.Equals(want) {
				t.Errorf("%s: OuterRefs = %v, want %v%s", name, g.outer, want, at())
			}
			if want := algebra.DeliveredOrder(n); !algebra.OrderingsEqual(g.order, want) {
				t.Errorf("%s: DeliveredOrder = %v, want %v%s", name, g.order, want, at())
			}
			if want := algebra.HasForeignSegmentRefs(n); g.segRefs != want {
				t.Errorf("%s: segRefs = %t, want %t%s", name, g.segRefs, want, at())
			}
			if len(g.order) > 0 {
				ordered++
			}
			if want := ref.cost(n); own != want {
				t.Errorf("%s: own-scope estimate %+v from the memo, %+v from scratch%s", name, own, want, at())
			}
			if !bound.Empty() || len(segRows) > 0 {
				if len(segRows) > 0 {
					segScoped++
				} else {
					bindScoped++
				}
				enter(algebra.ColSet{}, nil)
				if want := ref.cost(n); empty != want {
					t.Errorf("%s: empty-scope estimate %+v from the memo, %+v from scratch%s", name, empty, want, at())
				}
				enter(bound, segRows)
			}
			// Descend, entering the scopes an Apply and a SegmentApply set
			// up for the inner side.
			kids := s.inputs()
			switch n := n.(type) {
			case *algebra.Apply:
				walk(kids[0])
				enter(bound.Union(algebra.OutputCols(n.Left)), segRows)
				walk(kids[1])
			case *algebra.SegmentApply:
				walk(kids[0])
				in := ref.cost(n.Input)
				enter(bound, append(segRows[:len(segRows):len(segRows)], in.rows/ref.segments(n, in.rows)))
				walk(kids[1])
			default:
				for _, k := range kids {
					walk(k)
				}
			}
			enter(bound, segRows)
		}
		for _, p := range plans {
			walk(tab.intern(p, nil).group)
		}
	})
	if bindScoped == 0 || segScoped == 0 || ordered == 0 {
		t.Errorf("subtrees costed inside an Apply: %d, inside a SegmentApply: %d, delivering an order: %d; the test lost a subject",
			bindScoped, segScoped, ordered)
	}
}

// goldenPlans returns, per golden case, the plans its search starts
// from and ends at: the normalized plan, the correlated seed and the
// winner. Together they cover Apply scopes, ordered scans and every
// aggregate flavour.
func goldenPlans(t *testing.T, visit func(name string, o *Optimizer, plans []algebra.Rel)) {
	t.Helper()
	st, err := goldenStore()
	if err != nil {
		t.Fatal(err)
	}
	sc := stats.Collect(st)
	_, cases := readGolden(t)
	for _, c := range cases {
		if !c.seeded {
			continue
		}
		md, rel, seeds := goldenInputs(t, st, c)
		o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
		plans := append([]algebra.Rel{rel, o.Optimize(rel, seeds...).Plan}, seeds...)
		visit(c.name, o, plans)
	}
}

// refCoster is the reference the memo's coster is held to: a
// deliberately naive coster that recurses over the algebra.Rel tree,
// rederives every property it needs from the tree on every call
// (algebra.OutputCols, algebra.DeliveredOrder, algebra.ApplyBindingCols)
// and keeps nothing. It borrows from coster only what involves no
// input — the scalar-level helpers (selectivity, distinct, groupCount,
// segments, costGet) and the scope fields.
type refCoster struct{ *coster }

func (c refCoster) cost(r algebra.Rel) estimate {
	switch t := r.(type) {
	case *algebra.Get:
		return c.costGet(t, nil)

	case *algebra.Select:
		if g, ok := t.Input.(*algebra.Get); ok {
			return c.costGet(g, t.Filter)
		}
		in := c.cost(t.Input)
		return estimate{rows: in.rows * c.selectivity(t.Filter, in.rows), cost: in.cost + in.rows*cPredEval}

	case *algebra.Project:
		in := c.cost(t.Input)
		return estimate{rows: in.rows, cost: in.cost + in.rows*cPredEval*float64(1+len(t.Items))}

	case *algebra.Join:
		l, rr := c.cost(t.Left), c.cost(t.Right)
		lk, rk, _ := exec.SplitJoinKeys(t.On, algebra.OutputCols(t.Left), algebra.OutputCols(t.Right))
		var outRows float64
		if len(lk) > 0 {
			d := 1.0
			for i := range lk {
				d = math.Max(d, math.Max(c.distinct(lk[i], l.rows), c.distinct(rk[i], rr.rows)))
			}
			outRows = l.rows * rr.rows / d
		} else {
			outRows = l.rows * rr.rows * c.selectivity(t.On, l.rows*rr.rows)
		}
		var cost float64
		switch exec.JoinAlg(lk, rk, algebra.DeliveredOrder(t.Left), algebra.DeliveredOrder(t.Right)) {
		case exec.AlgMerge:
			cost = l.cost + rr.cost + (l.rows+rr.rows)*cMergeRow
		case exec.AlgHash:
			cost = l.cost + rr.cost + rr.rows*cHashBuild + l.rows*cHashProbe
		default:
			cost = l.cost + rr.cost + l.rows*rr.rows*cPredEval
		}
		switch t.Kind {
		case algebra.SemiJoin:
			outRows = l.rows * math.Min(1, outRows/math.Max(l.rows, 1))
		case algebra.AntiSemiJoin:
			outRows = l.rows * (1 - math.Min(1, outRows/math.Max(l.rows, 1)))
		case algebra.LeftOuterJoin:
			outRows = math.Max(outRows, l.rows)
		}
		return estimate{rows: math.Max(outRows, 0), cost: cost}

	case *algebra.Apply:
		l := c.cost(t.Left)
		saved := c.bound
		c.bound = c.bound.Union(algebra.OutputCols(t.Left))
		rr := c.cost(t.Right)
		c.bound = saved
		sig, _ := algebra.ApplyBindingCols(t)
		execs := l.rows
		if sig.Empty() {
			execs = 1
		} else {
			d := 0.0
			sig.ForEach(func(col algebra.ColID) {
				if cs, _, ok := c.colStats(col); ok && cs.Distinct > 0 {
					d = math.Max(d, float64(cs.Distinct))
				}
			})
			if d > 0 {
				execs = math.Min(l.rows, d)
			}
		}
		cost := l.cost + execs*(rr.cost+cOpenIter) + l.rows*cHashRow
		var outRows float64
		switch t.Kind {
		case algebra.SemiJoin, algebra.AntiSemiJoin:
			outRows = l.rows * 0.5
		case algebra.LeftOuterJoin:
			outRows = l.rows * math.Max(1, rr.rows)
		default:
			outRows = l.rows * math.Max(rr.rows, 0.001)
			if t.On != nil {
				outRows *= c.selectivity(t.On, outRows)
			}
		}
		return estimate{rows: math.Max(outRows, 0), cost: cost}

	case *algebra.GroupBy:
		in := c.cost(t.Input)
		c.noteAggs(t)
		perRow := cHashRow
		if exec.AggAlg(t, algebra.DeliveredOrder(t.Input)) == exec.AlgStream {
			perRow = cStreamRow
		}
		return estimate{rows: c.groupCount(t, in.rows), cost: in.cost + in.rows*perRow*float64(1+len(t.Aggs))}

	case *algebra.SegmentApply:
		in := c.cost(t.Input)
		segments := c.segments(t, in.rows)
		c.segRows = append(c.segRows, in.rows/segments)
		inner := c.cost(t.Inner)
		c.segRows = c.segRows[:len(c.segRows)-1]
		return estimate{rows: inner.rows * segments, cost: in.cost + in.rows*cHashRow + segments*(inner.cost+cOpenIter)}

	case *algebra.SegmentRef:
		rows := c.segmentRows()
		return estimate{rows: rows, cost: rows * cScanRow}

	case *algebra.Max1Row:
		in := c.cost(t.Input)
		return estimate{rows: math.Min(in.rows, 1), cost: in.cost}

	case *algebra.UnionAll:
		l, rr := c.cost(t.Left), c.cost(t.Right)
		return estimate{rows: l.rows + rr.rows, cost: l.cost + rr.cost}

	case *algebra.Difference:
		l, rr := c.cost(t.Left), c.cost(t.Right)
		return estimate{rows: math.Max(0, l.rows-rr.rows/2), cost: l.cost + rr.cost + (l.rows+rr.rows)*cHashRow}

	case *algebra.Values:
		return estimate{rows: float64(len(t.Rows)), cost: float64(len(t.Rows))}

	case *algebra.Sort:
		in := c.cost(t.Input)
		n := math.Max(in.rows, 2)
		return estimate{rows: in.rows, cost: in.cost + n*math.Log2(n)*cSortRow}

	case *algebra.Top:
		in := c.cost(t.Input)
		return estimate{rows: math.Min(in.rows, float64(t.N)), cost: in.cost}

	case *algebra.RowNumber:
		in := c.cost(t.Input)
		return estimate{rows: in.rows, cost: in.cost + in.rows*cPredEval}
	}
	return estimate{rows: 1000, cost: 1e12}
}

// TestOptimizeDeterministic: two Optimize calls on freshly algebrized
// copies of a query return the same plan text, cost and rule path, and
// do the same amount of work — perfbench's plan-fidelity check
// compares a traced shadow compilation with the engine's own, so no
// map iteration may reach an ordering decision.
func TestOptimizeDeterministic(t *testing.T) {
	st, err := goldenStore()
	if err != nil {
		t.Fatal(err)
	}
	sc := stats.Collect(st)
	_, cases := readGolden(t)
	for _, c := range cases {
		if !c.seeded || strings.HasPrefix(c.name, "fuzz") {
			continue // the perfbench queries: TPC-H and the Q1 spellings
		}
		run := func() (string, *Result) {
			md, rel, seeds := goldenInputs(t, st, c)
			r := (&Optimizer{Md: md, Cat: st.Catalog, Stats: sc}).Optimize(rel, seeds...)
			return renderResult(md, r), r
		}
		text1, r1 := run()
		text2, r2 := run()
		if text1 != text2 {
			t.Errorf("%s: two searches differ\n--- first\n%s--- second\n%s", c.name, text1, text2)
		}
		if r1.Generated != r2.Generated || r1.Costed != r2.Costed || r1.Materialized != r2.Materialized {
			t.Errorf("%s: work differs: generated %d/%d, costed %d/%d, materialized %d/%d", c.name,
				r1.Generated, r2.Generated, r1.Costed, r2.Costed, r1.Materialized, r2.Materialized)
		}
	}
}
