package opt

import "orthoq/internal/algebra"

// table is the interned-subtree table of one Optimize call, and its
// entries are the unit the search works in: a candidate plan is
// deduplicated, costed and ordered as an entry — an operator plus the
// entries of its inputs — and the algebra.Rel tree it denotes is built
// only when the plan is taken off the frontier (its rules need a tree)
// or returned. A candidate differs from the plan it was derived from
// along one root-to-node spine, so everything done for it touches only
// the entries of that spine; the subtrees hanging off it are shared.
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
// computed bottom-up with two small maps, without rendering a tree —
// and, for a candidate, without making an entry: see probe.
type table struct {
	o *Optimizer
	// c costs on behalf of the table; its estimates land in the entries.
	c *coster

	// byRel finds the entry of a tree that exists: what was interned and
	// what relOf built. Rule outputs share their untouched subtrees with
	// the tree the rule fired on, and intern recognizes those here.
	byRel   map[algebra.Rel]*subtree
	lines   map[string]int32
	text    []byte // lineOf's buffer
	classes classSet
	// pushed[class] records that a plan of that class has entered the
	// frontier.
	pushed []bool
	// slab is where the next entries come from; scratch stands in for
	// an entry that may not be needed (lineWith).
	slab    []subtree
	scratch subtree
	// materialized counts tree nodes built by relOf, for
	// Result.Materialized.
	materialized int
}

// classKey identifies a FormatRel text by the root's line and the
// classes of its inputs (-1 where absent; no operator has more than
// two).
type classKey struct{ line, left, right int32 }

// classSet numbers the distinct classKeys in order of arrival. Every
// candidate probes it once per spine node, which is the search's inner
// loop, so it is an open-addressed table over the three integers
// rather than a map: keys are held by class number, and slots hold
// class+1 (0 = empty) under linear probing.
type classSet struct {
	keys  []classKey
	slots []int32
}

func (k classKey) hash() uint32 {
	h := uint32(k.line)*0x9E3779B1 ^ uint32(k.left)*0x85EBCA77 ^ uint32(k.right)*0xC2B2AE3D
	return h ^ h>>15
}

// slot returns the slot holding k's class, or the empty one k belongs
// in.
func (c *classSet) slot(k classKey) *int32 {
	mask := uint32(len(c.slots) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		if id := &c.slots[i]; *id == 0 || c.keys[*id-1] == k {
			return id
		}
	}
}

// find returns k's class number.
func (c *classSet) find(k classKey) (int32, bool) {
	if len(c.keys) == 0 {
		return -1, false
	}
	id := *c.slot(k)
	return id - 1, id != 0
}

// add gives k, which find does not know, the next class number.
func (c *classSet) add(k classKey) int32 {
	if 2*(len(c.keys)+1) > len(c.slots) {
		c.slots = make([]int32, max(32, 2*len(c.slots)))
		for id, old := range c.keys {
			*c.slot(old) = int32(id) + 1
		}
	}
	c.keys = append(c.keys, k)
	*c.slot(k) = int32(len(c.keys))
	return int32(len(c.keys)) - 1
}

// subtree is one table entry: an operator, the entries of its inputs,
// and everything the search has learnt about the subtree the two
// denote. It is the algebra.Props of its operator — the node's inputs'
// properties are read off the input entries — so a property or an
// estimate of an entry is a function of (operator, what is known about
// its inputs) and needs no tree.
type subtree struct {
	// op carries the operator's own fields; its input fields are stale
	// in an entry made by with, and kids are the inputs (nil where
	// absent; no operator has more than two). rel is the tree the two
	// denote, nil until relOf is asked for it.
	op   algebra.Rel
	kids [2]*subtree
	rel  algebra.Rel

	line  int32 // FormatNode text, interned
	class int32
	// segRefs: the subtree reads the segment of a SegmentApply above it.
	segRefs  bool
	expanded bool
	own      uint16 // once expanded: how many of moves are rules at the node

	// Derived properties, each computed on first use from the input
	// entries': output columns, outer references, delivered sort order.
	// And the estimate in the first costing scope the subtree was met in
	// (see coster.cost); the few entries met in more scopes keep the
	// other estimates in coster.more. The flags sit together so that the
	// entry packs into 256 bytes.
	hasOut, hasOuter, hasOrder, hasEst bool
	out, outer                         algebra.ColSet
	order                              []algebra.Ordering
	est                                scopedEstimate

	// moves lists every single-rule rewrite at or below this node, in
	// the search's generation order: rules at the node itself, then the
	// moves of each input in turn, lifted to this node. Valid once
	// expanded.
	moves []move
}

// move is one single-rule rewrite of a subtree s: the output of a rule
// fired at s itself (to is set from the start), or a move of one of
// s's inputs lifted to s — s with that input replaced (see lifted). A
// lifted move gets its entry only when a plan containing it turns out
// to be new (target); until then it is known by its class alone
// (probe). Most of a search's moves never get an entry, so a move is
// kept to 16 bytes.
type move struct {
	to *subtree
	// class is to's class once known, -1 before.
	class int32
	rule  uint8 // index into ruleNames
}

// lifted says which input's move the lifted move k of s is: s.moves
// lists the own moves, then input 0's moves, then input 1's.
func (s *subtree) lifted(k int) (input, idx int) {
	idx = k - int(s.own)
	if n := len(s.kids[0].moves); idx >= n {
		return 1, idx - n
	}
	return 0, idx
}

type scopedEstimate struct {
	bound algebra.ColSet
	seg   float64
	est   estimate
}

func newTable(o *Optimizer) *table {
	t := &table{
		o:     o,
		byRel: map[algebra.Rel]*subtree{},
		lines: map[string]int32{},
	}
	t.c = &coster{md: o.Md, cat: o.Cat, st: o.Stats, strategy: o.Strategy}
	return t
}

// inputs returns the entries of s's inputs.
func (s *subtree) inputs() []*subtree {
	n := 0
	for n < len(s.kids) && s.kids[n] != nil {
		n++
	}
	return s.kids[:n]
}

// The entry's own properties.

func (s *subtree) outputCols() algebra.ColSet {
	if !s.hasOut {
		s.out, s.hasOut = algebra.DeriveOutputCols(s, s.op), true
	}
	return s.out
}

func (s *subtree) outerRefs() algebra.ColSet {
	if !s.hasOuter {
		s.outer, s.hasOuter = algebra.DeriveOuterRefs(s, s.op), true
	}
	return s.outer
}

func (s *subtree) deliveredOrder() []algebra.Ordering {
	if !s.hasOrder {
		s.order, s.hasOrder = algebra.DeriveDeliveredOrder(s, s.op), true
	}
	return s.order
}

// OutputCols, OuterRefs, DeliveredOrder and SegmentRefCols make the
// entry the algebra.Props of its operator: they answer for input i.

func (s *subtree) OutputCols(i int) algebra.ColSet         { return s.kids[i].outputCols() }
func (s *subtree) OuterRefs(i int) algebra.ColSet          { return s.kids[i].outerRefs() }
func (s *subtree) DeliveredOrder(i int) []algebra.Ordering { return s.kids[i].deliveredOrder() }

// SegmentRefCols is asked only when a SegmentApply's outer references
// are derived, once per such entry, and is not kept.
func (s *subtree) SegmentRefCols(i int) algebra.ColSet {
	return algebra.DeriveSegmentRefCols(s.kids[i], s.kids[i].op)
}

// alloc carves an entry from the current slab. Slabs start small (most
// queries' searches are) and double up to a size the allocator still
// serves from its size classes.
func (t *table) alloc() *subtree {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]subtree, 0, min(max(4, 2*cap(t.slab)), 64))
	}
	t.slab = t.slab[:len(t.slab)+1]
	return &t.slab[len(t.slab)-1]
}

// intern returns the entry for the tree r, entering it and any of its
// subtrees not yet known. Trees are immutable and rewrites share
// untouched subtrees, so a pointer seen before is the same subtree.
func (t *table) intern(r algebra.Rel) *subtree {
	if s, ok := t.byRel[r]; ok {
		return s
	}
	s := t.alloc()
	s.op, s.rel = r, r
	for i, in := range r.Inputs() {
		s.kids[i] = t.intern(in)
	}
	t.byRel[r] = s
	t.classify(s, t.lineOf(s), -1)
	return s
}

// with returns a new entry for p with input i replaced by n, whose
// class is class if that is known (-1 if not).
func (t *table) with(p *subtree, i int, n *subtree, class int32) *subtree {
	line := t.lineWith(p, i, n)
	s := t.alloc()
	s.op, s.kids = p.op, p.kids
	s.kids[i] = n
	t.classify(s, line, class)
	return s
}

// lineWith is the line of p with input i replaced by n: p's own,
// except that an Apply's line names the columns its inputs bind, which
// the replacement may change.
func (t *table) lineWith(p *subtree, i int, n *subtree) int32 {
	a, ok := p.op.(*algebra.Apply)
	if !ok {
		return p.line
	}
	t.scratch = subtree{op: a, kids: p.kids}
	t.scratch.kids[i] = n
	if algebra.BindingSignature(&t.scratch, a).Equals(algebra.BindingSignature(p, a)) {
		return p.line
	}
	return t.lineOf(&t.scratch)
}

// lineOf interns s's FormatNode text. The text is a function of the
// operator's own fields, except an Apply's, which names the columns
// its inputs bind.
func (t *table) lineOf(s *subtree) int32 {
	t.text = algebra.AppendNode(t.text[:0], t.o.Md, s, s.op)
	id, ok := t.lines[string(t.text)]
	if !ok {
		id = int32(len(t.lines))
		t.lines[string(t.text)] = id
	}
	return id
}

// classify fills in what an entry derives from its line and inputs
// alone. class is its class number if the caller has probed it, else
// -1.
func (t *table) classify(s *subtree, line, class int32) {
	s.line = line
	for i, k := range s.inputs() {
		// A SegmentApply's inner side reads the apply's own segment; only
		// refs on its input side reach further up.
		if _, ok := s.op.(*algebra.SegmentApply); !ok || i == 0 {
			s.segRefs = s.segRefs || k.segRefs
		}
	}
	if _, ok := s.op.(*algebra.SegmentRef); ok {
		s.segRefs = true
	}
	if class < 0 {
		key := keyOf(line, s.kids)
		var ok bool
		if class, ok = t.classes.find(key); !ok {
			class = t.classes.add(key)
			t.pushed = append(t.pushed, false)
		}
	}
	s.class = class
}

func keyOf(line int32, kids [2]*subtree) classKey {
	key := classKey{line, -1, -1}
	if kids[0] != nil {
		key.left = kids[0].class
	}
	if kids[1] != nil {
		key.right = kids[1].class
	}
	return key
}

// relOf returns the tree s denotes, building the nodes that do not
// exist yet.
func (t *table) relOf(s *subtree) algebra.Rel {
	if s.rel == nil {
		kids := s.inputs()
		ins := make([]algebra.Rel, len(kids))
		for i, k := range kids {
			ins[i] = t.relOf(k)
		}
		s.rel = s.op.WithInputs(ins)
		t.byRel[s.rel] = s
		t.materialized++
	}
	return s.rel
}

// expand returns every single-rule rewrite at or below s. The rules at
// a node fire once per entry, however many plans contain it, and this
// is the one place the search needs the entry's tree.
func (t *table) expand(s *subtree) []move {
	if s.expanded {
		return s.moves
	}
	s.expanded = true
	here := t.o.rulesAt(t.relOf(s), s)
	n := len(here)
	for _, k := range s.inputs() {
		n += len(t.expand(k))
	}
	s.moves = make([]move, 0, n)
	s.own = uint16(len(here))
	for _, c := range here {
		to := t.intern(c.rel)
		s.moves = append(s.moves, move{to: to, class: to.class, rule: ruleID(c.rule)})
	}
	for _, k := range s.inputs() {
		for _, m := range k.moves {
			s.moves = append(s.moves, move{class: -1, rule: m.rule})
		}
	}
	return s.moves
}

// probe returns the class of move k of the expanded entry s, or -1 if
// no subtree of that class has been entered — in which case the move
// is certainly new. The class of a lifted move follows from s's line
// and the classes of its inputs, one of them probed in turn, so a
// candidate that repeats a plan already seen costs a map lookup per
// spine node and no entry. What a probe finds is kept on the move: the
// next plan sharing the spine node stops there.
func (t *table) probe(s *subtree, k int) int32 {
	m := &s.moves[k]
	if m.class >= 0 {
		return m.class
	}
	i, j := s.lifted(k)
	kc := t.probe(s.kids[i], j)
	if kc < 0 {
		return -1
	}
	line := s.line
	if _, ok := s.op.(*algebra.Apply); ok {
		// An Apply's line needs the rewritten input's properties, so that
		// input's entry is made; every plan containing s's input shares it.
		line = t.lineWith(s, i, t.target(s.kids[i], j))
	}
	key := keyOf(line, s.kids)
	if i == 0 {
		key.left = kc
	} else {
		key.right = kc
	}
	if class, ok := t.classes.find(key); ok {
		m.class = class
	}
	return m.class
}

// target returns the entry of move k of the expanded entry s, making
// it — and the entries of the moves it is lifted from — on first use.
func (t *table) target(s *subtree, k int) *subtree {
	m := &s.moves[k]
	if m.to == nil {
		i, j := s.lifted(k)
		m.to = t.with(s, i, t.target(s.kids[i], j), m.class)
		m.class = m.to.class
	}
	return m.to
}
