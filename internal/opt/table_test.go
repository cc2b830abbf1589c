package opt

import (
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/stats"
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

// TestTableMatchesFromScratch: what the subtree table hands out —
// output columns, outer references and estimates — equals, bit for
// bit, what deriving the subtree from scratch gives, for every subtree
// of every golden plan. Each subtree is costed twice, in the empty
// scope and in the scope its position in the plan puts it in, with one
// table shared across all plans of the query, so an estimate cached in
// one scope and wrongly reused in another shows as a difference. No
// golden winner keeps a SegmentApply at this scale factor, so the
// SegmentApply plans within three rewrites of the normalized plan (how
// far Q17's is) are walked as well.
func TestTableMatchesFromScratch(t *testing.T) {
	bindScoped, segScoped := 0, 0
	goldenPlans(t, func(name string, o *Optimizer, plans []algebra.Rel) {
		tab := newTable(o)
		ref := &coster{md: o.Md, cat: o.Cat, st: o.Stats}
		compare := func(n algebra.Rel, scope string) {
			if want, got := ref.cost(n), tab.c.cost(n); got != want {
				t.Errorf("%s: %s-scope estimate of\n%s= %+v from the table, %+v from scratch",
					name, scope, algebra.FormatRel(o.Md, n), got, want)
			}
		}
		// enter puts both costers in the same scope.
		enter := func(bound algebra.ColSet, segRows []float64) {
			ref.bound, ref.segRows = bound, segRows
			tab.c.bound, tab.c.segRows = bound, segRows
		}
		var walk func(n algebra.Rel)
		walk = func(n algebra.Rel) {
			if got, want := tab.OutputCols(n), algebra.OutputCols(n); !got.Equals(want) {
				t.Errorf("%s: OutputCols = %v, want %v at\n%s", name, got, want, algebra.FormatRel(o.Md, n))
			}
			if got, want := tab.OuterRefs(n), algebra.OuterRefs(n); !got.Equals(want) {
				t.Errorf("%s: OuterRefs = %v, want %v at\n%s", name, got, want, algebra.FormatRel(o.Md, n))
			}
			bound, segRows := ref.bound, ref.segRows
			if !bound.Empty() || len(segRows) > 0 {
				if len(segRows) > 0 {
					segScoped++
				} else {
					bindScoped++
				}
				enter(algebra.ColSet{}, nil)
				compare(n, "empty")
				enter(bound, segRows)
			}
			compare(n, "own")
			// Descend, entering the scopes costApply and costSegmentApply
			// set up for the inner side.
			switch n := n.(type) {
			case *algebra.Apply:
				walk(n.Left)
				enter(bound.Union(algebra.OutputCols(n.Left)), segRows)
				walk(n.Right)
			case *algebra.SegmentApply:
				walk(n.Input)
				in := ref.cost(n.Input)
				enter(bound, append(segRows[:len(segRows):len(segRows)], in.rows/ref.segments(n, in.rows)))
				walk(n.Inner)
			default:
				for _, in := range n.Inputs() {
					walk(in)
				}
			}
			enter(bound, segRows)
		}
		for _, p := range plans {
			walk(p)
		}
		level := []*subtree{tab.intern(plans[0])}
		for depth := 0; depth < 3; depth++ {
			var next []*subtree
			for _, s := range level {
				for _, m := range tab.expand(s) {
					if tab.pushed[m.to.class] {
						continue
					}
					tab.pushed[m.to.class] = true
					next = append(next, m.to)
					if m.rule == RuleIntroduceSegmentApply || m.rule == RulePushJoinBelowSegmentApply {
						walk(tab.relOf(m.to))
					}
				}
			}
			level = next
		}
	})
	if bindScoped == 0 || segScoped == 0 {
		t.Errorf("subtrees costed inside an Apply: %d, inside a SegmentApply: %d; the test lost a subject",
			bindScoped, segScoped)
	}
}

// TestClassesAreFormatRelEquality: two table entries have the same
// class exactly when their FormatRel texts are equal — the relation the
// search has always deduplicated plans by. Checked over every subtree
// of the golden plans and of all their single-rule rewrites, which
// brings in entries made by with (lazily materialized) and plans that
// print alike but were built by different rule firings.
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
			for _, m := range tab.expand(root) {
				check(m.to)
			}
		}
	})
}
