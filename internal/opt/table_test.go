package opt

import (
	"math"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/exec"
	"orthoq/internal/stats"
	"orthoq/internal/tpch"
)

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

// estimateOf is o's estimate of r as a whole plan.
func estimateOf(o *Optimizer, r algebra.Rel) estimate {
	t := newTable(o)
	return t.c.cost(t.intern(r))
}

// refCoster is the reference the entry coster is held to: a
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
		switch c.strategy.JoinAlg(lk, rk, algebra.DeliveredOrder(t.Left), algebra.DeliveredOrder(t.Right)) {
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
		perRow := cHashRow
		if c.strategy.AggAlg(t, algebra.DeliveredOrder(t.Input)) == exec.AlgStream {
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

// TestTableMatchesFromScratch: what a table entry holds — output
// columns, outer references, delivered order and estimates — equals,
// bit for bit, what the tree it denotes gives from scratch (the algebra
// package's tree-walking derivations, and refCoster), for every subtree
// of every golden plan. Each subtree is costed twice, in the empty
// scope and in the scope its position in the plan puts it in, with one
// table shared across all plans of the query, so an estimate cached in
// one scope and wrongly reused in another shows as a difference. No
// golden winner keeps a SegmentApply at this scale factor, so the
// SegmentApply plans within three rewrites of the normalized plan (how
// far Q17's is) are walked as well; those are entries made by with,
// whose operators' input fields are stale, costed before their trees
// exist.
func TestTableMatchesFromScratch(t *testing.T) {
	bindScoped, segScoped, ordered := 0, 0, 0
	goldenPlans(t, func(name string, o *Optimizer, plans []algebra.Rel) {
		tab := newTable(o)
		ref := refCoster{&coster{md: o.Md, cat: o.Cat, st: o.Stats}}
		// enter puts both costers in the same scope.
		enter := func(bound algebra.ColSet, segRows []float64) {
			ref.bound, ref.segRows = bound, segRows
			tab.c.bound, tab.c.segRows = bound, segRows
		}
		var walk func(s *subtree)
		walk = func(s *subtree) {
			// The entry is asked first: nothing it answers may need the tree.
			out, outer, order := s.outputCols(), s.outerRefs(), s.deliveredOrder()
			bound, segRows := ref.bound, ref.segRows
			enter(algebra.ColSet{}, nil)
			empty := tab.c.cost(s)
			enter(bound, segRows)
			own := tab.c.cost(s)

			n := tab.relOf(s)
			at := func() string { return " at\n" + algebra.FormatRel(o.Md, n) }
			if want := algebra.OutputCols(n); !out.Equals(want) {
				t.Errorf("%s: OutputCols = %v, want %v%s", name, out, want, at())
			}
			if want := algebra.OuterRefs(n); !outer.Equals(want) {
				t.Errorf("%s: OuterRefs = %v, want %v%s", name, outer, want, at())
			}
			if want := algebra.DeliveredOrder(n); !algebra.OrderingsEqual(order, want) {
				t.Errorf("%s: DeliveredOrder = %v, want %v%s", name, order, want, at())
			}
			if len(order) > 0 {
				ordered++
			}
			if want := ref.cost(n); own != want {
				t.Errorf("%s: own-scope estimate %+v from the entry, %+v from scratch%s", name, own, want, at())
			}
			if !bound.Empty() || len(segRows) > 0 {
				if len(segRows) > 0 {
					segScoped++
				} else {
					bindScoped++
				}
				enter(algebra.ColSet{}, nil)
				if want := ref.cost(n); empty != want {
					t.Errorf("%s: empty-scope estimate %+v from the entry, %+v from scratch%s", name, empty, want, at())
				}
				enter(bound, segRows)
			}
			// Descend, entering the scopes costApply and costSegmentApply
			// set up for the inner side.
			switch n := n.(type) {
			case *algebra.Apply:
				walk(s.kids[0])
				enter(bound.Union(algebra.OutputCols(n.Left)), segRows)
				walk(s.kids[1])
			case *algebra.SegmentApply:
				walk(s.kids[0])
				in := ref.cost(n.Input)
				enter(bound, append(segRows[:len(segRows):len(segRows)], in.rows/ref.segments(n, in.rows)))
				walk(s.kids[1])
			default:
				for _, k := range s.inputs() {
					walk(k)
				}
			}
			enter(bound, segRows)
		}
		for _, p := range plans {
			walk(tab.intern(p))
		}
		level := []*subtree{tab.intern(plans[0])}
		for depth := 0; depth < 3; depth++ {
			var next []*subtree
			for _, s := range level {
				for k, m := range tab.expand(s) {
					if c := tab.probe(s, k); c >= 0 && tab.pushed[c] {
						continue
					}
					to := tab.target(s, k)
					tab.pushed[to.class] = true
					next = append(next, to)
					if rule := ruleNames[m.rule]; rule == RuleIntroduceSegmentApply || rule == RulePushJoinBelowSegmentApply {
						walk(to)
					}
				}
			}
			level = next
		}
	})
	if bindScoped == 0 || segScoped == 0 || ordered == 0 {
		t.Errorf("subtrees costed inside an Apply: %d, inside a SegmentApply: %d, delivering an order: %d; the test lost a subject",
			bindScoped, segScoped, ordered)
	}
}

// TestClassesAreFormatRelEquality: two table entries have the same
// class exactly when their FormatRel texts are equal — the relation the
// search has always deduplicated plans by — and probing a rewrite's
// class without making its entry gives the class the entry then gets.
// Checked over every subtree of the golden plans and of all their
// single-rule rewrites, which brings in entries made by with and plans
// that print alike but were built by different rule firings.
func TestClassesAreFormatRelEquality(t *testing.T) {
	goldenPlans(t, func(name string, o *Optimizer, plans []algebra.Rel) {
		tab := newTable(o)
		textOf := map[int32]string{}
		classOf := map[string]int32{}
		var check func(s *subtree)
		check = func(s *subtree) {
			text := algebra.FormatRel(o.Md, tab.relOf(s))
			if prev, ok := textOf[s.class]; ok && prev != text {
				t.Fatalf("%s: class %d holds two texts:\n%s---\n%s", name, s.class, prev, text)
			}
			if prev, ok := classOf[text]; ok && prev != s.class {
				t.Fatalf("%s: classes %d and %d hold one text:\n%s", name, prev, s.class, text)
			}
			textOf[s.class], classOf[text] = text, s.class
			for _, k := range s.inputs() {
				check(k)
			}
		}
		for _, p := range plans {
			root := tab.intern(p)
			check(root)
			for k := range tab.expand(root) {
				probed := tab.probe(root, k)
				to := tab.target(root, k)
				if probed >= 0 && probed != to.class {
					t.Fatalf("%s: rewrite %d probed as class %d, entered as class %d:\n%s",
						name, k, probed, to.class, algebra.FormatRel(o.Md, tab.relOf(to)))
				}
				if _, seen := textOf[to.class]; probed < 0 && seen {
					t.Fatalf("%s: rewrite %d probed as new, entered in the known class %d:\n%s",
						name, k, to.class, algebra.FormatRel(o.Md, tab.relOf(to)))
				}
				check(to)
			}
		}
	})
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

// TestOptimizeWorkBounds pins, on seeded Q2, both halves of "same
// search, cheaper step": the search's own counters are exactly those of
// the tree-costing optimizer (PR 12: 16 551 generated, 71 149 costed,
// 1 200 explored), while the work spent per candidate stays bounded —
// trees are built only along the spines of expanded plans (66 628
// nodes when every costed candidate got one), and a duplicate
// candidate allocates nothing (669 210 allocations per call then).
func TestOptimizeWorkBounds(t *testing.T) {
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
	if r.Generated != 16551 || r.Costed != 71149 || r.Explored != 1200 {
		t.Errorf("search counters: generated %d, costed %d, explored %d; want 16551, 71149, 1200",
			r.Generated, r.Costed, r.Explored)
	}
	if r.Materialized > 15000 {
		t.Errorf("materialized %d tree nodes, want at most 15000", r.Materialized)
	}
	if allocs > 400000 {
		t.Errorf("%.0f allocations per Optimize, want at most 400000", allocs)
	}
	t.Logf("Q2: materialized %d, %.0f allocs", r.Materialized, allocs)
}

// TestCostedUnderStrategy: the optimizer prices a plan under the
// strategy it will run with. Under a forced merge join an equi-join
// costs the merge formula — in the entry's estimate and in EXPLAIN's
// annotation — where the default strategy, seeing unordered inputs,
// prices a hash join. (That the zero strategy leaves every golden cost
// as it was is TestSearchUnchanged.)
func TestCostedUnderStrategy(t *testing.T) {
	st := tinyTPCH(t)
	sc := stats.Collect(st)
	md, rel, _ := prep(t, st, `select o_orderkey, c_name from orders, customer where o_custkey = c_custkey`)
	joinCost := func(strategy exec.Strategy) (join, l, r estimate) {
		tab := newTable(&Optimizer{Md: md, Cat: st.Catalog, Stats: sc, Strategy: strategy})
		s := tab.intern(rel)
		for {
			if _, ok := s.op.(*algebra.Join); ok {
				break
			}
			s = s.kids[0]
		}
		return tab.c.cost(s), tab.c.cost(s.kids[0]), tab.c.cost(s.kids[1])
	}
	merge := exec.Strategy{Join: exec.AlgMerge}
	j, l, r := joinCost(merge)
	if want := l.cost + r.cost + (l.rows+r.rows)*cMergeRow; j.cost != want {
		t.Errorf("forced merge join costed %v, want the merge formula %v", j.cost, want)
	}
	j, l, r = joinCost(exec.Strategy{})
	if want := l.cost + r.cost + r.rows*cHashBuild + l.rows*cHashProbe; j.cost != want {
		t.Errorf("default join costed %v, want the hash formula %v", j.cost, want)
	}
	forced := FormatWithEstimates(md, st.Catalog, sc, rel, merge)
	if !strings.Contains(forced, "join=merge") || forced == FormatWithEstimates(md, st.Catalog, sc, rel) {
		t.Errorf("EXPLAIN under a forced merge join does not price it:\n%s", forced)
	}
}
