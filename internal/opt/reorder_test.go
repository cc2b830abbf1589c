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

// fireAll fires every enabled rule on the binding b, deciding nothing on
// the memo's numbers: a join over a join is rotated from its tree's
// predicates (rotateTree) and a join commuted whatever the memo holds.
func (m *memo) fireAll(b binding) {
	var rotate func(*algebra.Join) (algebra.Rel, bool)
	if joinOverJoin(b) {
		rotate = func(j *algebra.Join) (algebra.Rel, bool) {
			return m.rotateTree(j, b.slot, b.in.OutputCols(1-b.slot).Union(b.p.OutputCols(1-b.slot)))
		}
	}
	m.rewrite(b, m.bind(b.p, b.slot, b.in), rotate, func(*mexpr) bool { return true })
}

// TestSkippedBindingsChangeNothing: the explored memo is closed under
// every binding on which it did not fire every enabled rule — a join
// over a join not queued, or popped and not fired; a rotation or a
// commute not built; an operator alone not queued. Over the golden
// corpus, seeded and unseeded, each such binding whose expressions
// live when exploration ends is built from its trees then, and every
// enabled rule is fired on it (fireAll): interning the rewrites adds no
// expression and merges no group. The log gives how many bindings took
// each path. With it, the memo's answers for its trees' output columns
// (ColsOf), which the rules read, equal the trees' own.
func TestSkippedBindingsChangeNothing(t *testing.T) {
	st, err := goldenStore()
	if err != nil {
		t.Fatal(err)
	}
	sc := stats.Collect(st)
	_, cases := readGolden(t)
	total := map[string]int{}
	checked, violations, cols := 0, 0, 0
	for _, c := range cases {
		md, rel, seeds := goldenInputs(t, st, c)
		m := newMemo(&Optimizer{Md: md, Cat: st.Catalog, Stats: sc})
		paths := map[string]int{}
		var skipped []binding
		m.skip = func(b binding, path string) {
			paths[path]++
			skipped = append(skipped, b)
		}
		root := m.intern(rel, nil).group
		for _, s := range seeds {
			root.out = root.out.Intersection(algebra.OutputCols(s))
			m.intern(s, root)
		}
		m.explore()
		m.skip = func(binding, string) {}
		for r := range m.byRel {
			if got, want := m.ColsOf(r), algebra.OutputCols(r); !got.Equals(want) {
				t.Errorf("%s seed=%t: the memo answers %v for the columns of\n%s\nwhich outputs %v",
					c.name, c.seeded, got, algebra.FormatRel(md, r), want)
			}
			cols++
		}
		for _, b := range skipped {
			if b.p.dead || b.in != nil && b.in.dead {
				continue
			}
			live, standing := m.live, m.standing
			m.fireAll(b)
			checked++
			if m.live != live || m.standing != standing {
				violations++
				t.Errorf("%s seed=%t: a skipped binding of %s adds %d expressions and merges %d groups",
					c.name, c.seeded, lineText(md, m.relOf(b.p)), m.live-live, standing-m.standing)
			}
		}
		for p, n := range paths {
			total[p] += n
		}
		if c.name == "Q2" && c.seeded {
			t.Logf("Q2 seed=true: %s", formatPaths(paths))
		}
	}
	t.Logf("corpus: %s", formatPaths(total))
	t.Logf("%d skipped bindings fired at the fixpoint, %d violations; %d column answers checked", checked, violations, cols)
	if checked == 0 {
		t.Error("no skipped binding was checked; the test lost its subjects")
	}
}

// lineText is the first line of r's plan text.
func lineText(md *algebra.Metadata, r algebra.Rel) string {
	text, _, _ := strings.Cut(algebra.FormatRel(md, r), "\n")
	return text
}

func formatPaths(paths map[string]int) string {
	var out []string
	for p, n := range paths {
		out = append(out, fmt.Sprintf("%s %d", p, n))
	}
	slices.Sort(out)
	return strings.Join(out, ", ")
}
