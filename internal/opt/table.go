package opt

import "orthoq/internal/algebra"

// table is the interned-subtree table of one Optimize call: every
// distinct plan subtree the search touches has one entry, and what the
// search needs to know about a subtree — its identity for
// deduplication, its logical properties, its cost, the rewrites that
// apply inside it — is computed once and kept there. A candidate plan
// differs from the plan it was derived from along one root-to-node
// spine, so producing, deduplicating and costing it touches only the
// entries of that spine; the subtrees hanging off it are shared.
//
// An entry is a subtree *as built*: two structurally equal trees
// reached by different rewrites get two entries. That keeps everything
// hung on an entry exact — rules mint fresh column IDs, so trees that
// print alike can still differ in the IDs their parents must reference
// — and loses little, because rewrites share the subtrees they do not
// touch by pointer.
//
// Deduplication, in contrast, must conflate exactly what the search
// always has: plans whose FormatRel texts are equal. Each entry
// therefore also carries a class number such that two entries have the
// same class iff their FormatRel texts are equal. FormatRel's text is
// the pre-order sequence of the nodes' own lines, so the class of a
// node is determined by its own line and its children's classes and is
// computed bottom-up with two small maps, without rendering a tree.
type table struct {
	o *Optimizer
	// c costs on behalf of the table; its estimates land in the entries.
	c *coster

	byRel   map[algebra.Rel]*subtree
	lines   map[string]int32
	classes map[classKey]int32
	// pushed[class] records that a plan of that class has entered the
	// frontier.
	pushed []bool
	// costed counts estimates derived (cache misses), for Result.Costed.
	costed int
}

// classKey identifies a FormatRel text by the root's line and the
// classes of its inputs (-1 where absent; no operator has more than
// two).
type classKey struct{ line, left, right int32 }

// subtree is one table entry. The search makes an entry for every
// candidate plan and every node on its spine, and most candidates turn
// out to repeat a plan already seen, so an entry starts small: what
// only plans that are costed or expanded need is filled in on demand.
type subtree struct {
	// op carries the operator's own fields and kids its inputs (nil
	// where absent; no operator has more than two). rel is the tree the
	// two denote; entries made by swapping one input of an existing entry
	// (with) get it on first use.
	op   algebra.Rel
	kids [2]*subtree
	rel  algebra.Rel

	line  int32 // FormatNode text, interned
	class int32
	// segRefs: the subtree reads the segment of a SegmentApply above it.
	segRefs  bool
	expanded bool

	// facts is what costing has learnt about the subtree.
	facts *facts

	// moves lists every single-rule rewrite at or below this node, in
	// the search's generation order: rules at the node itself, then the
	// moves of each input in turn, lifted to this node. Valid once
	// expanded.
	moves []move
}

// facts are a subtree's derived properties and its estimate in each
// costing scope it was met in (see table.estimate).
type facts struct {
	out, outer       algebra.ColSet
	hasOut, hasOuter bool
	ests             []scopedEstimate
}

// inputs returns the entries of s's inputs.
func (s *subtree) inputs() []*subtree {
	n := 0
	for n < len(s.kids) && s.kids[n] != nil {
		n++
	}
	return s.kids[:n]
}

func (s *subtree) known() *facts {
	if s.facts == nil {
		s.facts = &facts{}
	}
	return s.facts
}

// move is one single-rule rewrite of a subtree.
type move struct {
	to   *subtree
	rule string
}

type scopedEstimate struct {
	bound algebra.ColSet
	seg   float64
	est   estimate
}

func newTable(o *Optimizer) *table {
	t := &table{
		o:       o,
		byRel:   map[algebra.Rel]*subtree{},
		lines:   map[string]int32{},
		classes: map[classKey]int32{},
	}
	t.c = &coster{md: o.Md, cat: o.Cat, st: o.Stats, tab: t}
	return t
}

// intern returns the entry for the tree r, entering it and any of its
// subtrees not yet known. Trees are immutable and rewrites share
// untouched subtrees, so a pointer seen before is the same subtree.
func (t *table) intern(r algebra.Rel) *subtree {
	if s, ok := t.byRel[r]; ok {
		return s
	}
	s := &subtree{op: r, rel: r}
	for i, in := range r.Inputs() {
		s.kids[i] = t.intern(in)
	}
	t.byRel[r] = s
	t.classify(s, t.line(r))
	return s
}

// with returns the entry for p with input i replaced by n.
func (t *table) with(p *subtree, i int, n *subtree) *subtree {
	s := &subtree{op: p.op, kids: p.kids}
	s.kids[i] = n
	line := p.line
	if _, ok := p.op.(*algebra.Apply); ok {
		// The one line that is not a function of the operator's own
		// fields: it names the columns the inputs bind.
		line = t.line(t.relOf(s))
	}
	t.classify(s, line)
	return s
}

func (t *table) line(r algebra.Rel) int32 {
	text := algebra.FormatNode(t.o.Md, t, r)
	id, ok := t.lines[text]
	if !ok {
		id = int32(len(t.lines))
		t.lines[text] = id
	}
	return id
}

// classify fills in what an entry derives from its line and inputs
// alone.
func (t *table) classify(s *subtree, line int32) {
	s.line = line
	key := classKey{line, -1, -1}
	for i, k := range s.inputs() {
		if i == 0 {
			key.left = k.class
		} else {
			key.right = k.class
		}
		// A SegmentApply's inner side reads the apply's own segment; only
		// refs on its input side reach further up.
		if _, ok := s.op.(*algebra.SegmentApply); !ok || i == 0 {
			s.segRefs = s.segRefs || k.segRefs
		}
	}
	if _, ok := s.op.(*algebra.SegmentRef); ok {
		s.segRefs = true
	}
	id, ok := t.classes[key]
	if !ok {
		id = int32(len(t.classes))
		t.classes[key] = id
		t.pushed = append(t.pushed, false)
	}
	s.class = id
}

// relOf returns the tree s denotes.
func (t *table) relOf(s *subtree) algebra.Rel {
	if s.rel == nil {
		kids := s.inputs()
		ins := make([]algebra.Rel, len(kids))
		for i, k := range kids {
			ins[i] = t.relOf(k)
		}
		s.rel = s.op.WithInputs(ins)
		t.byRel[s.rel] = s
	}
	return s.rel
}

// OutputCols and OuterRefs make the table an algebra.Props: each
// property is derived once per entry from the entries of its inputs.

func (t *table) OutputCols(r algebra.Rel) algebra.ColSet {
	f := t.intern(r).known()
	if !f.hasOut {
		f.out, f.hasOut = algebra.DeriveOutputCols(t, r), true
	}
	return f.out
}

func (t *table) OuterRefs(r algebra.Rel) algebra.ColSet {
	f := t.intern(r).known()
	if !f.hasOuter {
		f.outer, f.hasOuter = algebra.DeriveOuterRefs(t, r), true
	}
	return f.outer
}

// estimate returns c's estimate of r, derived once per costing scope.
// Deriving an estimate consults the scope in two places only: a Get's
// seek detection asks whether the comparand columns of its filter are
// bound by an enclosing Apply, and a SegmentRef reads the innermost
// enclosing segment size. The columns a subtree can ask about that it
// does not bind itself are its outer references, so the scope reduces
// to (bound ∩ OuterRefs, innermost segment size if the subtree reads
// one). A subtree with no outer references and no foreign SegmentRef —
// nearly all of them — has one scope and is costed once.
func (t *table) estimate(c *coster, r algebra.Rel) estimate {
	s := t.intern(r)
	var bound algebra.ColSet
	if !c.bound.Empty() {
		bound = c.bound.Intersection(t.OuterRefs(r))
	}
	seg := 0.0
	if s.segRefs {
		seg = c.segmentRows()
	}
	f := s.known()
	for _, e := range f.ests {
		if e.seg == seg && e.bound.Equals(bound) {
			return e.est
		}
	}
	est := c.derive(r)
	f.ests = append(f.ests, scopedEstimate{bound: bound, seg: seg, est: est})
	t.costed++
	return est
}

// planCost is the cost of s as a whole plan (no enclosing scope).
func (t *table) planCost(s *subtree) float64 {
	return t.c.cost(t.relOf(s)).cost
}

// expand returns every single-rule rewrite at or below s. The rules at
// a node fire once per entry, however many plans contain it.
func (t *table) expand(s *subtree) []move {
	if s.expanded {
		return s.moves
	}
	s.expanded = true
	here := t.o.rulesAt(t.relOf(s))
	n := len(here)
	for _, k := range s.inputs() {
		n += len(t.expand(k))
	}
	s.moves = make([]move, 0, n)
	for _, c := range here {
		s.moves = append(s.moves, move{to: t.intern(c.rel), rule: c.rule})
	}
	for i, k := range s.inputs() {
		for _, m := range k.moves {
			s.moves = append(s.moves, move{to: t.with(s, i, m.to), rule: m.rule})
		}
	}
	return s.moves
}
