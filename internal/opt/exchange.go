package opt

import (
	"orthoq/internal/algebra"
	"orthoq/internal/core"
)

// offerExchanges is the one place the exchange (algebra.Exchange)
// enters the memo, at Parallelism > 1 once exploration has ended. Like
// a Sort it is an enforcer, of a partitioned input: it never joins its
// input's group, which would make the group an input of its own member.
// An exchange over group g founds a group of its own and is offered as
// the input of each Sort and GroupBy over g, which cannot run on the
// workers themselves — a GroupBy also as its §3.3 split, the
// LocalGroupBy below the exchange, with no rule switch gating it — and
// as the whole plan: the cheaper of root and the exchange over it is
// returned. Where an exchange can run and what may read one, the coster
// decides (coster.reads).
func (m *memo) offerExchanges(root *group) *group {
	offer := func(p *mexpr, r algebra.Rel) { // derived as p was
		m.by = p.by
		m.intern(r, p.group.find())
		m.by = nil
	}
	for _, g := range m.groups {
		if g.into != nil || !g.outer.Empty() || g.segRefs {
			continue // a worker binds nothing from outside
		}
		for i, n := 0, len(g.parents); i < n; i++ {
			p := g.parents[i]
			if gb, ok := p.op.(*algebra.GroupBy); ok && gb.Kind != algebra.LocalGroupBy {
				if split, ok := core.TrySplitGroupBy(m.o.Md, m.relOf(p).(*algebra.GroupBy)); ok {
					global, ok := split.(*algebra.GroupBy)
					if !ok {
						global = split.(*algebra.Project).Input.(*algebra.GroupBy)
					}
					global.Input = &algebra.Exchange{Input: global.Input} // a node of the split's own
					offer(p, split)
				}
			} else if _, ok := p.op.(*algebra.Sort); !ok {
				continue // what else reads g runs on the workers, or cannot
			}
			offer(p, p.op.WithInputs([]algebra.Rel{&algebra.Exchange{Input: g.exprs[0].rel}}))
		}
	}
	if root.outer.Empty() && !root.segRefs {
		x := m.intern(&algebra.Exchange{Input: root.exprs[0].rel}, nil).group
		if m.c.cost(x).cost < m.c.cost(root).cost {
			return x
		}
	}
	return root
}
