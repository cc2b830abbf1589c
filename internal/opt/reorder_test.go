package opt

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/stats"
)

// rotateTree is RotateJoin fired on a binding's tree, the conjuncts read
// off the tree's predicates: the rewrite rotation decides on the memo's
// numbers.
func (m *memo) rotateTree(j *algebra.Join, slot int, innerCols algebra.ColSet) (algebra.Rel, bool) {
	lower, ok := [2]algebra.Rel{j.Left, j.Right}[slot].(*algebra.Join)
	if !ok {
		return nil, false
	}
	inner, outer, ok := m.reassociate(j.Kind, lower.Kind, m.conjuncts(nil, lower.On), m.conjuncts(nil, j.On), innerCols)
	if !ok {
		return nil, false
	}
	return rotateJoin(j, slot, inner, outer), true
}

// TestJoinReorderLookupMatchesRewrite: every commute and rotation the
// memo decides not to build is a no-op. Over the golden corpus, seeded
// and unseeded, each skipped one is built from its binding's tree the
// way the rule fires on a tree and interned into the group it would
// join: that adds no expression and merges no group, and the rewrite is
// in that group or withheld (nil). The log gives how many bindings took
// each path: built; skipped as refused (the rule on the tree refuses
// too), withheld, or held; and how many join-over-join bindings built
// no tree at all.
func TestJoinReorderLookupMatchesRewrite(t *testing.T) {
	st, err := goldenStore()
	if err != nil {
		t.Fatal(err)
	}
	sc := stats.Collect(st)
	_, cases := readGolden(t)
	total := map[string]int{}
	for _, c := range cases {
		md, rel, seeds := goldenInputs(t, st, c)
		m := newMemo(&Optimizer{Md: md, Cat: st.Catalog, Stats: sc})
		paths := map[string]int{}
		m.looked = func(b binding, rule string, built bool) {
			if built {
				paths[rule+" built"]++
				return
			}
			var r algebra.Rel
			var ok bool
			if rule == RuleRotateJoin {
				if !m.segmentMatches(b.p, b.slot) {
					paths["join-over-join bindings not built"]++
				}
				j := m.bind(b.p, b.slot, b.in).(*algebra.Join)
				r, ok = m.rotateTree(j, b.slot, b.in.OutputCols(1-b.slot).Union(b.p.OutputCols(1-b.slot)))
			} else {
				r, ok = commuteJoin(m.relOf(b.p).(*algebra.Join))
			}
			if !ok {
				paths[rule+" refused"]++
				return
			}
			live, standing, into := m.live, m.standing, b.p.group.find()
			got := m.intern(r, into)
			switch {
			case m.live != live || m.standing != standing:
				t.Errorf("%s seed=%t: skipped %s adds %d expressions and merges %d groups:\n%s",
					c.name, c.seeded, rule, m.live-live, standing-m.standing, algebra.FormatRel(md, r))
			case got == nil:
				paths[rule+" withheld"]++
			case got.group.find() != into:
				t.Errorf("%s seed=%t: skipped %s is in G%d, not in G%d", c.name, c.seeded, rule, got.group.find().id, into.id)
			default:
				paths[rule+" held"]++
			}
		}
		root := m.intern(rel, nil).group
		for _, s := range seeds {
			root.out = root.out.Intersection(algebra.OutputCols(s))
			m.intern(s, root)
		}
		m.explore()
		for p, n := range paths {
			total[p] += n
		}
		if c.name == "Q2" && c.seeded {
			t.Logf("Q2 seed=true: %s", formatPaths(paths))
		}
	}
	t.Logf("corpus: %s", formatPaths(total))
}

func formatPaths(paths map[string]int) string {
	var out []string
	for p, n := range paths {
		out = append(out, fmt.Sprintf("%s %d", p, n))
	}
	slices.Sort(out)
	return strings.Join(out, ", ")
}
