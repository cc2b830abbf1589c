package opt

import (
	"encoding/binary"
	"slices"

	"orthoq/internal/algebra"
)

// memo is the plan space of one Optimize call (DESIGN §17): expressions
// — an operator over input groups — in groups of expressions that
// produce the same rows. Independent choices add up instead of
// multiplying, and the search ends when no rule has a binding left to
// fire on, not when a budget is spent.
//
// An expression is identified by its operator's own fields, compared by
// column ID (algebra.AppendNodeKey: two instances of one table print
// alike), and its input groups, so a rewrite is recognized whichever
// rule path built it — provided it names the columns it introduces the
// same way each time, which rules see to with Metadata.DerivedColumn.
//
// A group's contract is its first member's, the representative's: the
// output columns every member provides (a member may provide more, but
// nothing above the group may read them), the outer references, the
// delivered order. What is above the group was written against the
// contract and holds whichever member wins.
//
// A rule, a function from tree to tree, fires on a binding: an
// expression over the representative trees of its input groups, except
// that for patterns naming an input's operator (GroupBy over Join, Join
// over Join, ...) that input ranges over the members of its group. The
// rewrite is interned node by node, the subtrees it shares with the
// binding found by pointer (byRel), and its root joins the group of the
// expression the rule fired on; if it is a member of another group
// already, the two are one group and are merged. The join reorders are
// decided first on the memo's numbers — their conjuncts' IDs and the
// groups' (rotation, commutes) — and build trees only for a rewrite
// whose interning would change the memo; a join over a join that no
// rule can rewrite into anything new is not even queued (offer).
type memo struct {
	o *Optimizer
	// c costs on behalf of the memo; its winners land in the groups.
	c *coster

	// byRel finds the expression a tree denotes, for the trees the memo
	// built or accepted as an expression's own (mexpr.rel).
	byRel map[algebra.Rel]*mexpr
	exprs map[exprKey]*mexpr
	// texts interns key texts: operator lines (lineOf) and join
	// conjuncts (conjunct.id).
	texts map[string]int32
	text  []byte // the key texts' buffer
	// conjs finds the conjunct a join predicate's scalar is, and
	// equalities the a = b redistribute spelled where no conjunct of
	// the joins it dealt did, by (a, b).
	conjs      map[algebra.Scalar]*conjunct
	equalities map[[2]algebra.ColID]*conjunct
	// preds interns join predicates as kinds and conjunct IDs in order
	// (mexpr.pred), predCols has the columns each reads, and deals the
	// rotations dealt from each pair (lower, upper) of them (see deal).
	preds    map[string]int32
	predCols []algebra.ColSet
	deals    [][][]*deal
	// joinLines finds a join's line from its kind and its conjuncts' IDs
	// (see idKey); key, ids and on are idKey's and lineOf's buffers,
	// dealt redistribute's.
	joinLines map[string]int32
	key       []byte
	ids       []int32
	on, dealt []*conjunct
	// groups lists every group made, merged ones included; standing
	// counts those not merged into another.
	groups   []*group
	standing int
	// queue holds the bindings no rule has fired on yet, oldest first,
	// from head on: fired ones are dropped (see push).
	queue []binding
	head  int
	// by is the firing whose rewrite is being interned (nil: a seed).
	by *firing

	// live counts expressions, fired the rule firings that produced a
	// rewrite, materialized the tree nodes built, queued the bindings
	// queued.
	live, fired, materialized, queued int
	truncated                         bool

	// skip sees each binding on which the memo does not fire every
	// enabled rule, and the path that decided it; tests set it.
	skip func(b binding, path string)
}

// maxExprs is the memo's size guard: the rules' closure is finite but
// can be large (spelled cross products make an n-way join block 3ⁿ), so
// a memo this large stops exploring and costs what it has
// (Result.Truncated). Nothing in the repository's corpora comes within
// a factor of four of it (TestSearchExhausts).
const maxExprs = 40000

// exprKey identifies an expression: the operator's own fields, as an
// interned AppendNodeKey text, and the input groups' numbers (-1 where
// absent; no operator has more than two inputs).
type exprKey struct{ line, left, right int32 }

// group is a set of expressions producing the same rows (up to the
// columns beyond out, which nothing above may read).
type group struct {
	id int32
	// into is the group this one was merged into, nil while it stands.
	into *group
	// exprs are the members; exprs[0] is the representative and is never
	// dead. parents are the expressions having the group as an input.
	exprs   []*mexpr
	parents []*mexpr

	// The contract, derived from the representative when the group is
	// made: output columns, outer references, delivered order, and
	// whether the rows depend on the segment of a SegmentApply above.
	out, outer algebra.ColSet
	order      []algebra.Ordering
	segRefs    bool
	// inst is the representative's instance key (see InstanceOf), nil
	// until asked for.
	inst *algebra.Instance

	// winners holds, per costing scope, the ways of computing the group
	// worth keeping (see coster.best); busy marks a group whose winners
	// are being sought.
	winners []scopedWinners
	busy    bool
}

// find returns the group g stands for after merges.
func (g *group) find() *group {
	for g.into != nil {
		g = g.into
	}
	return g
}

// mexpr is one expression: an operator and its input groups. It is the
// algebra.Props of its operator, answering for input i from the group's
// contract, so its properties and estimates need no tree.
type mexpr struct {
	// op carries the operator's own fields; its input fields are stale
	// unless op == rel. rel is the tree that denotes the expression in
	// bindings: op over its input groups' representatives as they were
	// when it was built, nil until asked for.
	op    algebra.Rel
	rel   algebra.Rel
	kids  [2]*group
	group *group
	key   exprKey
	// by is the rule firing that introduced the expression, nil for a
	// seed's.
	by *firing
	// on is a join's predicate as its conjuncts, in
	// algebra.AppendConjuncts order; pred is its ID (see preds).
	on   []*conjunct
	pred int32
	// wide: the expression outputs columns beyond its group's contract.
	// dead: a merge found it to duplicate another member. final: an
	// order rule introduced it (see add); no rule fires on it.
	wide, dead, final bool
}

// firing is one rule application that produced a rewrite: the rule, the
// binding it fired on, and its place in the firing order.
type firing struct {
	root, in *mexpr
	rule     string
	seq      int
	final    bool
}

// binding is a pending rule application: expression p alone (slot < 0),
// or p over the member in of its input group slot.
type binding struct {
	p    *mexpr
	slot int
	in   *mexpr
}

func newMemo(o *Optimizer) *memo {
	m := &memo{
		o:          o,
		byRel:      map[algebra.Rel]*mexpr{},
		exprs:      map[exprKey]*mexpr{},
		texts:      map[string]int32{},
		conjs:      map[algebra.Scalar]*conjunct{},
		equalities: map[[2]algebra.ColID]*conjunct{},
		joinLines:  map[string]int32{},
		preds:      map[string]int32{},
		skip:       func(binding, string) {},
	}
	m.c = &coster{md: o.Md, cat: o.Cat, st: o.Stats, workers: o.Parallelism}
	return m
}

// inputs returns e's input groups.
func (e *mexpr) inputs() []*group {
	n := 0
	for n < len(e.kids) && e.kids[n] != nil {
		e.kids[n] = e.kids[n].find()
		n++
	}
	return e.kids[:n]
}

// OutputCols, OuterRefs, DeliveredOrder and SegmentRefCols make the
// expression the algebra.Props of its operator: they answer for input i
// with the input group's contract.

func (e *mexpr) OutputCols(i int) algebra.ColSet         { return e.kids[i].find().out }
func (e *mexpr) OuterRefs(i int) algebra.ColSet          { return e.kids[i].find().outer }
func (e *mexpr) DeliveredOrder(i int) []algebra.Ordering { return e.kids[i].find().order }

// SegmentRefCols is asked only when a SegmentApply's outer references
// are derived, once per such group, and is not kept.
func (e *mexpr) SegmentRefCols(i int) algebra.ColSet {
	rep := e.kids[i].find().exprs[0]
	return algebra.DeriveSegmentRefCols(rep, rep.op)
}

// textID interns the key text in m.text.
func (m *memo) textID() int32 {
	id, ok := m.texts[string(m.text)]
	if !ok {
		id = int32(len(m.texts))
		m.texts[string(m.text)] = id
	}
	return id
}

// lineOf interns r's AppendNodeKey text, and returns a join's
// conjuncts as well (in a buffer good until the next call). A join
// spelled as onOf spells its conjuncts has its line found from their
// IDs, its text rendered only the first time that set is seen.
func (m *memo) lineOf(r algebra.Rel) (int32, []*conjunct) {
	j, ok := r.(*algebra.Join)
	if !ok {
		m.text = algebra.AppendNodeKey(m.text[:0], r)
		return m.textID(), nil
	}
	m.on = m.conjuncts(m.on[:0], j.On)
	spelled := spelledAs(j.On, m.on)
	if spelled {
		m.idKey(j.Kind, m.on, true)
		if line, ok := m.joinLines[string(m.key)]; ok {
			return line, m.on
		}
	}
	m.text = algebra.AppendNodeKey(m.text[:0], r)
	line := m.textID()
	if spelled {
		m.joinLines[string(m.key)] = line
	}
	return line, m.on
}

// spelledAs reports whether on is onOf(cs): the form of a join
// predicate whose key text its conjuncts' IDs determine.
func spelledAs(on algebra.Scalar, cs []*conjunct) bool {
	switch len(cs) {
	case 0:
		return on == nil
	case 1:
		return on == cs[0].s
	}
	and, ok := on.(*algebra.And)
	if !ok || len(and.Args) != len(cs) {
		return false
	}
	for i, a := range and.Args {
		if a != cs[i].s {
			return false
		}
	}
	return true
}

// idKey renders kind and the IDs of the conjuncts on, sorted or in
// order, into m.key. Sorted, it keys joinLines: AppendNodeKey renders a join whose
// predicate is onOf(on) as its kind and its conjuncts' key texts in
// sorted order, so the kind and the sorted IDs determine the text.
func (m *memo) idKey(kind algebra.JoinKind, on []*conjunct, sorted bool) {
	m.ids = m.ids[:0]
	for _, c := range on {
		m.ids = append(m.ids, c.id)
	}
	if sorted {
		slices.Sort(m.ids)
	}
	m.key = append(m.key[:0], byte(kind))
	for _, id := range m.ids {
		m.key = binary.LittleEndian.AppendUint32(m.key, uint32(id))
	}
}

// conjuncts appends the conjuncts of the join predicate on to dst.
func (m *memo) conjuncts(dst []*conjunct, on algebra.Scalar) []*conjunct {
	var buf [8]algebra.Scalar
	for _, s := range algebra.AppendConjuncts(buf[:0], on) {
		dst = append(dst, m.conjunct(s))
	}
	return dst
}

// conjunct returns the conjunct the scalar s is.
func (m *memo) conjunct(s algebra.Scalar) *conjunct {
	c, ok := m.conjs[s]
	if !ok {
		m.text = algebra.AppendScalarKey(m.text[:0], s)
		c = &conjunct{s: s, id: m.textID(), cols: algebra.ScalarCols(s), sub: algebra.HasSubquery(s)}
		c.l, c.r, _ = algebra.ColEquality(s)
		m.conjs[s] = c
	}
	return c
}

// equality returns the conjunct a = b that redistribute spells when
// neither join has one: one scalar per (a, b).
func (m *memo) equality(a, b algebra.ColID) *conjunct {
	c, ok := m.equalities[[2]algebra.ColID{a, b}]
	if !ok {
		c = m.conjunct(&algebra.Cmp{Op: algebra.CmpEq, L: &algebra.ColRef{Col: a}, R: &algebra.ColRef{Col: b}})
		m.equalities[[2]algebra.ColID{a, b}] = c
	}
	return c
}

// ColsOf answers a rule's question for a subtree's output columns
// (algebra.ColsOf) without rederiving the subtree: a tree the memo
// holds outputs what its expression's operator derives over its input
// groups' contracts, since the trees below it are those groups'
// representatives. Only a node a rule built is derived from scratch.
func (m *memo) ColsOf(r algebra.Rel) algebra.ColSet {
	if e, ok := m.byRel[r]; ok {
		return algebra.DeriveOutputCols(e, e.op)
	}
	return algebra.OutputCols(r)
}

// InstanceOf answers a rule's question for a subtree's instance key
// (algebra.ColsOf) from the subtree's group, which derives it from its
// representative once: the members of a group are one relation on one
// set of output columns, so two groups whose representatives are
// instances of one expression hold instances of it, whichever members
// the rule reads. Only a node a rule built is keyed from scratch.
func (m *memo) InstanceOf(r algebra.Rel) algebra.Instance {
	e, ok := m.byRel[r]
	if !ok {
		return algebra.InstanceOf(r)
	}
	g := e.group.find()
	if g.inst == nil {
		inst := algebra.InstanceOf(g.exprs[0].rel)
		g.inst = &inst
	}
	return *g.inst
}

func keyOf(line int32, kids [2]*group) exprKey {
	key := exprKey{line, -1, -1}
	if kids[0] != nil {
		key.left = kids[0].id
	}
	if kids[1] != nil {
		key.right = kids[1].id
	}
	return key
}

// intern returns the expression the tree r denotes, entering it and any
// of its subtrees the memo does not hold. A new expression joins the
// group into; with into nil it founds a group. An expression the memo
// holds in another group than into shows the two groups equivalent, and
// they are merged. The result is nil when r cannot be entered soundly
// (see place and the wide check below): the rewrite is then withheld.
func (m *memo) intern(r algebra.Rel, into *group) *mexpr {
	if e, ok := m.byRel[r]; ok {
		return m.place(e, into)
	}
	var kids [2]*group
	own := true // r's inputs are its input groups' representative trees
	left, right := algebra.InputsOf(r)
	for i, in := range [2]algebra.Rel{left, right} {
		if in == nil {
			break
		}
		k := m.intern(in, nil)
		if k == nil || k.wide {
			// A new operator over a member that outputs more than its
			// group promises could come to read the surplus, which the
			// group's other members do not provide.
			return nil
		}
		kids[i] = k.group.find()
		own = own && in == kids[i].exprs[0].rel
	}
	if kids[0] != nil {
		kids[0] = kids[0].find() // entering the second input may have merged it
	}
	line, on := m.lineOf(r)
	key := keyOf(line, kids)
	if e, ok := m.exprs[key]; ok {
		return m.place(e, into)
	}
	e := &mexpr{op: r, kids: kids, key: key, on: slices.Clone(on), by: m.by, final: m.by != nil && m.by.final}
	if j, ok := r.(*algebra.Join); ok {
		e.pred = m.predID(j.Kind, on)
	}
	if into == nil {
		// The representative's tree is wanted by every binding above.
		e.group = m.newGroup(e)
		if own {
			e.rel = r
			m.byRel[r] = e
		} else {
			m.relOf(e)
		}
	} else {
		into = into.find()
		out := algebra.DeriveOutputCols(e, r)
		if !into.out.SubsetOf(out) {
			return nil
		}
		e.wide = !out.Equals(into.out)
		e.group = into
		into.exprs = append(into.exprs, e)
	}
	m.exprs[key] = e
	m.live++
	for _, k := range e.inputs() {
		m.above(k, e)
	}
	m.schedule(e)
	return e
}

// place puts the expression e, which the memo holds, in the group into:
// nothing to do if it is there or into is nil, a merge otherwise.
func (m *memo) place(e *mexpr, into *group) *mexpr {
	if into != nil && !m.merge(into, e.group) {
		return nil
	}
	return e
}

// newGroup founds a group on its representative e.
func (m *memo) newGroup(e *mexpr) *group {
	g := &group{id: int32(len(m.groups)), exprs: []*mexpr{e}}
	m.groups = append(m.groups, g)
	m.standing++
	g.out = algebra.DeriveOutputCols(e, e.op)
	g.outer = algebra.DeriveOuterRefs(e, e.op)
	g.order = algebra.DeriveDeliveredOrder(e, e.op)
	for i, k := range e.inputs() {
		// A SegmentApply's inner side reads the apply's own segment; only
		// refs on its input side reach further up.
		if _, ok := e.op.(*algebra.SegmentApply); !ok || i == 0 {
			g.segRefs = g.segRefs || k.segRefs
		}
	}
	if _, ok := e.op.(*algebra.SegmentRef); ok {
		g.segRefs = true
	}
	return g
}

// relOf returns the tree that denotes e in bindings, building it over
// the representatives of e's input groups if it does not exist.
func (m *memo) relOf(e *mexpr) algebra.Rel {
	if e.rel == nil {
		kids := e.inputs()
		ins := make([]algebra.Rel, len(kids))
		for i, k := range kids {
			ins[i] = k.exprs[0].rel
		}
		e.rel = e.op.WithInputs(ins)
		m.byRel[e.rel] = e
		m.materialized++
	}
	return e.rel
}

// bind returns the tree of a binding: p's tree, with the member in's
// tree as input slot (slot < 0: as it is).
func (m *memo) bind(p *mexpr, slot int, in *mexpr) algebra.Rel {
	r := m.relOf(p)
	if slot < 0 {
		return r
	}
	left, right := algebra.InputsOf(r)
	ins := [2]algebra.Rel{left, right}
	if ins[slot] == m.relOf(in) {
		return r
	}
	ins[slot] = in.rel
	m.materialized++
	if j, ok := p.op.(*algebra.Join); ok { // the usual case, without WithInputs' slice
		nj := *j
		nj.Left, nj.Right = ins[0], ins[1]
		return &nj
	}
	return p.op.WithInputs(ins[:len(p.inputs())])
}

// schedule queues the bindings the new expression e brings: e alone
// (see alone), e over every member of its input groups, and every
// expression above e's group over e.
func (m *memo) schedule(e *mexpr) {
	if e.final {
		return
	}
	if b := (binding{p: e, slot: -1}); alone(e.op) {
		m.push(b)
	} else {
		m.skip(b, "alone not queued")
	}
	for slot, k := range e.inputs() {
		for _, in := range k.exprs {
			m.offer(e, slot, in)
		}
	}
	m.offerAbove(e.group, e)
}

// offer queues the binding of p over in at slot if a rule could match
// it: a join over a join only if its rotation is not settled as changing
// nothing (rotation); no other rule matches one (PushSemiJoinBelowGroupBy,
// PullGroupByAboveJoin and JoinToApply want a GroupBy or a table access
// where the join is, PushJoinBelowSegmentApply a SegmentApply).
func (m *memo) offer(p *mexpr, slot int, in *mexpr) {
	if p.dead || in.dead || in.final || !depth2(p.op, in.op) {
		return
	}
	b := binding{p, slot, in}
	if joinOverJoin(b) && !p.final { // a final join's tree is built when its binding fires
		if _, build, settled := m.rotation(b); !build && settled {
			m.skip(b, "join over join not queued")
			return
		}
	}
	m.push(b)
}

// push queues b. A full queue whose fired bindings fill a quarter of it or
// more drops them instead of growing.
func (m *memo) push(b binding) {
	m.queued++
	if len(m.queue) == cap(m.queue) && m.head >= len(m.queue)/4 {
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
	m.queue = append(m.queue, b)
}

// offerAbove queues, for every expression that has g as an input, its
// binding over in.
func (m *memo) offerAbove(g *group, in *mexpr) {
	for _, p := range g.parents {
		for slot, k := range p.inputs() {
			if k == g {
				m.offer(p, slot, in)
			}
		}
	}
}

// merge makes a and b one group: some expression is a member of both.
// The older group stands and keeps its representative. It reports false,
// leaving both as they are, if the two promise different output columns:
// the members of one could not serve what is written above the other.
//
// Expressions above the merged group may have become duplicates of one
// another (same operator, same input groups now): one of each such pair
// dies, and their groups are merged in turn.
func (m *memo) merge(a, b *group) bool {
	a, b = a.find(), b.find()
	if a == b {
		return true
	}
	if !a.out.Equals(b.out) {
		return false
	}
	if b.id < a.id {
		a, b = b, a
	}
	// What is above either side now binds over the other side's members.
	for _, in := range b.exprs {
		m.offerAbove(a, in)
	}
	for _, in := range a.exprs {
		m.offerAbove(b, in)
	}
	b.into = a
	m.standing--
	for _, e := range b.exprs {
		e.group = a
	}
	a.exprs = append(a.exprs, b.exprs...)
	a.segRefs = a.segRefs || b.segRefs
	a.outer = a.outer.Union(b.outer)
	var twins [][2]*mexpr
	for _, p := range b.parents {
		if p.dead {
			continue
		}
		delete(m.exprs, p.key)
		p.inputs()
		p.key = keyOf(p.key.line, p.kids)
		if q, ok := m.exprs[p.key]; ok {
			twins = append(twins, [2]*mexpr{q, p})
			continue
		}
		m.exprs[p.key] = p
		m.above(a, p)
	}
	b.exprs, b.parents = nil, nil
	for _, t := range twins {
		q, p := t[0], t[1]
		if m.merge(q.group, p.group) {
			if p.group.find().exprs[0] == p {
				q, p = p, q // the representative is the one to stay
				m.exprs[q.key] = q
			}
			p.dead = true
			m.live--
		}
		// Where the groups could not merge, p lives on, found by pointer
		// only.
		if !t[1].dead {
			m.above(a.find(), t[1])
		}
	}
	return true
}

// above records p as an expression having g as an input.
func (m *memo) above(g *group, p *mexpr) {
	if !slices.Contains(g.parents, p) {
		g.parents = append(g.parents, p)
	}
}

// add enters the rewrite r of the binding (p, in) by rule as a member of
// p's group.
//
// What an order rule adds is final: the rewrite differs from p in the
// scans at the bottom promising an order, which changes no rows, so any
// rule that fires on it fires on p as well and would only rebuild p's
// alternatives over the ordered scans — doubling the space per ordered
// input. The order rules themselves fire on every one of those
// alternatives, so each still gets its ordered variant.
func (m *memo) add(p, in *mexpr, rule string, r algebra.Rel) {
	m.fired++
	m.by = &firing{root: p, in: in, rule: rule, seq: m.fired, final: slices.Contains(FamilyOrder, rule)}
	m.intern(r, p.group.find())
	m.by = nil
}

// explore fires rules until no binding is pending or the memo has grown
// to the size guard.
func (m *memo) explore() {
	for m.head < len(m.queue) {
		if m.live >= maxExprs {
			m.truncated = true
			break
		}
		b := m.queue[m.head]
		m.head++
		if !b.p.dead && (b.in == nil || !b.in.dead) {
			m.fire(b)
		}
	}
	m.queue, m.head = nil, 0
}

// rotation decides RotateJoin for the binding b of a join over a join on
// the memo's numbers before any tree is built (see deal). build is false
// when interning the rewrite would change nothing: reassociate refuses
// it; intern withholds it (the new lower join is held by a wide member);
// or both joins are held, the upper one where intern would put it (see
// idle). settled: refused, or the upper join held in b.p's group, which
// no later change to the memo undoes.
func (m *memo) rotation(b binding) (d *deal, build, settled bool) {
	if m.o.DisableRules[RuleRotateJoin] {
		return nil, false, true
	}
	if d = m.deal(b); !d.ok {
		return d, false, true
	}
	// The groups of rotateJoin's trees: (A ⋈ B) ⋈ C becomes A ⋈ (B ⋈ C)
	// at slot 0, A ⋈ (B ⋈ C) becomes (A ⋈ B) ⋈ C at slot 1.
	x, y, other := b.in.kids[0].find(), b.in.kids[1].find(), b.p.kids[1-b.slot].find()
	kids := [2]*group{y, other}
	if b.slot == 1 {
		kids = [2]*group{other, x}
	}
	lo, ok := m.joinExpr(&d.lines[0], algebra.InnerJoin, d.inner, kids)
	if !ok || lo.wide {
		return d, !ok, false
	}
	kind := algebra.InnerJoin
	if len(d.outer) == 0 {
		kind = algebra.CrossJoin
	}
	kids = [2]*group{x, lo.group.find()}
	if b.slot == 1 {
		kids = [2]*group{lo.group.find(), y}
	}
	up, ok := m.joinExpr(&d.lines[1], kind, d.outer, kids)
	if !ok {
		return d, true, false
	}
	settled = up.group.find() == b.p.group.find()
	return d, !m.idle(up, b.p.group), settled
}

// deal is reassociate's outcome for one rotation: refused (ok false), or
// the conjuncts of the new lower and upper joins, and their lines once
// the memo has seen them (-1 till then). under is the subset of the
// predicates' columns the new lower join's inputs produce.
type deal struct {
	under        algebra.ColSet
	ok           bool
	inner, outer []*conjunct
	lines        [2]int32
}

// deal returns how the binding b of a join over a join deals its
// conjuncts in a rotation. That depends on the two joins' kinds and
// predicates and on which of the predicates' columns the new lower
// join's inputs produce, and on nothing else (reassociate,
// redistribute), so each such case is dealt once per Optimize.
func (m *memo) deal(b binding) *deal {
	lower, upper := int(b.in.pred), int(b.p.pred)
	if lower >= len(m.deals) {
		m.deals = append(m.deals, make([][][]*deal, len(m.preds)-len(m.deals))...)
	}
	if upper >= len(m.deals[lower]) {
		m.deals[lower] = append(m.deals[lower], make([][]*deal, len(m.preds)-len(m.deals[lower]))...)
	}
	innerCols := b.in.OutputCols(1 - b.slot).Union(b.p.OutputCols(1 - b.slot))
	under := m.predCols[lower].Union(m.predCols[upper]).Intersection(innerCols)
	for _, d := range m.deals[lower][upper] {
		if d.under.Equals(under) {
			return d
		}
	}
	inner, outer, ok := m.reassociate(b.p.op.(*algebra.Join).Kind, b.in.op.(*algebra.Join).Kind, b.in.on, b.p.on, innerCols)
	d := &deal{under: under, ok: ok, inner: slices.Clone(inner), outer: slices.Clone(outer), lines: [2]int32{-1, -1}}
	m.deals[lower][upper] = append(m.deals[lower][upper], d)
	return d
}

// predID interns the predicate of a join of kind whose conjuncts are on.
func (m *memo) predID(kind algebra.JoinKind, on []*conjunct) int32 {
	m.idKey(kind, on, false)
	id, ok := m.preds[string(m.key)]
	if !ok {
		id = int32(len(m.preds))
		m.preds[string(m.key)] = id
		m.predCols = append(m.predCols, algebra.ColSet{})
		for _, c := range on {
			m.predCols[id].UnionWith(c.cols)
		}
	}
	return id
}

// commutes decides CommuteJoin for the join p on the memo's numbers:
// false when p's mirror, its line over its input groups swapped, is
// held where intern would put the commute (see idle). Every commute
// product is held so, and is not commuted back.
func (m *memo) commutes(p *mexpr) bool {
	kids := p.inputs()
	e, ok := m.exprs[exprKey{p.key.line, kids[1].id, kids[0].id}]
	return !ok || !m.idle(e, p.group)
}

// joinOverJoin reports whether b binds a join over a join.
func joinOverJoin(b binding) bool {
	if b.in == nil {
		return false
	}
	_, p := b.p.op.(*algebra.Join)
	_, in := b.in.op.(*algebra.Join)
	return p && in
}

// joinExpr returns the expression a join of kind over the groups kids
// with the predicate onOf(on) would be, if the memo holds one. line
// keeps that join's line once the memo has one (-1 till then).
func (m *memo) joinExpr(line *int32, kind algebra.JoinKind, on []*conjunct, kids [2]*group) (*mexpr, bool) {
	if *line < 0 {
		m.idKey(kind, on, true)
		l, ok := m.joinLines[string(m.key)]
		if !ok {
			return nil, false
		}
		*line = l
	}
	e, ok := m.exprs[keyOf(*line, kids)]
	return e, ok
}

// idle reports whether interning the expression e, which the memo
// holds, into the group g changes nothing: e is in g, or its group
// promises other output columns and merge refuses.
func (m *memo) idle(e *mexpr, g *group) bool {
	h, g := e.group.find(), g.find()
	return h == g || !h.out.Equals(g.out)
}

// derivation lists the rule firings on the way from the seeds to the
// given expressions, in firing order.
func derivation(plan []*mexpr) []string {
	var fs []*firing
	var trace func(e *mexpr)
	trace = func(e *mexpr) {
		if e == nil || e.by == nil || slices.Contains(fs, e.by) {
			return
		}
		fs = append(fs, e.by)
		trace(e.by.root)
		trace(e.by.in)
	}
	for _, e := range plan {
		trace(e)
	}
	slices.SortFunc(fs, func(a, b *firing) int { return a.seq - b.seq })
	var rules []string
	for _, f := range fs {
		rules = append(rules, f.rule)
	}
	return rules
}
