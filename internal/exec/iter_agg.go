package exec

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"orthoq/internal/algebra"
	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
)

// aggState is one aggregate's state in every group of a table, as
// typed arrays indexed by group. An aggregate keeps only the arrays its
// function reads; the others stay nil.
type aggState struct {
	item *algebra.AggItem
	acc  []aggAcc                   // COUNT(*), COUNT, SUM, AVG
	ext  []types.Datum              // MIN, MAX, ConstAny: the value kept, NULL before one
	seen []map[types.Datum]struct{} // DISTINCT: the values folded, by distinctKey
}

// aggAcc is a counting aggregate's state in one group.
type aggAcc struct {
	count int64   // the rows folded
	sumI  int64   // SUM, AVG: the sum of the Int arguments
	sumF  float64 // SUM, AVG: the sum of the Float arguments
	flt   bool    // SUM, AVG: a Float argument was folded
}

// newAggStates returns the (group-less) states of the aggregates aggs.
func newAggStates(aggs []algebra.AggItem) []aggState {
	s := make([]aggState, len(aggs))
	for j := range s {
		s[j].item = &aggs[j]
	}
	return s
}

// keeps reports whether the aggregate keeps a value (ext) rather than
// counting (acc).
func (s *aggState) keeps() bool {
	f := s.item.Func
	return f == algebra.AggMin || f == algebra.AggMax || f == algebra.AggConstAny
}

// fit resizes the state to n groups: the first keep as they are, the
// rest zero (no row folded).
func (s *aggState) fit(keep, n int) {
	if s.keeps() {
		s.ext = fit(s.ext, keep, n)
	} else {
		s.acc = fit(s.acc, keep, n)
	}
	if s.item.Distinct {
		s.seen = fit(s.seen, keep, n)
	}
}

// fit returns a with n entries: its first keep (as many as it has),
// then zeros.
func fit[T any](a []T, keep, n int) []T {
	if cap(a) < n {
		b := make([]T, n, max(n, 2*cap(a)))
		copy(b, a[:min(keep, len(a))])
		return b
	}
	a = a[:n]
	clear(a[keep:])
	return a
}

// groupBytes is what one group of the state occupies.
func (s *aggState) groupBytes() int64 {
	n := unsafe.Sizeof(aggAcc{})
	if s.keeps() {
		n = unsafe.Sizeof(types.Datum{})
	}
	if s.item.Distinct {
		n += unsafe.Sizeof(map[types.Datum]struct{}{})
	}
	return int64(n)
}

// move copies group src's state over group dst's.
func (s *aggState) move(dst, src int) {
	if s.acc != nil {
		s.acc[dst] = s.acc[src]
	}
	if s.ext != nil {
		s.ext[dst] = s.ext[src]
	}
	if s.seen != nil {
		s.seen[dst] = s.seen[src]
	}
}

// distinctKey is d as a DISTINCT set keys it: values types.Equal calls
// equal share a key (-0 and 0, every NaN, an Int and the Float of the
// same integer).
func distinctKey(d types.Datum) types.Datum {
	switch f := d.Float(); {
	case d.Kind() != types.Float:
	case f == math.Trunc(f) && math.Abs(f) < 1<<63:
		return types.NewInt(int64(f))
	case f != f:
		return types.NewFloat(math.NaN())
	}
	return d
}

// add folds one argument value into group g: the boxed definition the
// typed loops of foldAgg follow.
func (s *aggState) add(g int, d types.Datum) {
	item := s.item
	if item.Func == algebra.AggCountStar {
		s.acc[g].count++
		return
	}
	if d.IsNull() {
		return // aggregates ignore NULLs
	}
	if item.Distinct {
		if s.seen[g] == nil {
			s.seen[g] = make(map[types.Datum]struct{})
		}
		key := distinctKey(d)
		if _, dup := s.seen[g][key]; dup {
			return
		}
		s.seen[g][key] = struct{}{}
	}
	switch item.Func {
	case algebra.AggCount:
		s.acc[g].count++
	case algebra.AggSum, algebra.AggAvg:
		a := &s.acc[g]
		a.count++
		if d.Kind() == types.Float {
			a.flt = true
			a.sumF += d.Float()
		} else {
			a.sumI += d.Int()
		}
	case algebra.AggMin:
		if s.ext[g].IsNull() || types.Compare(d, s.ext[g]) < 0 {
			s.ext[g] = d
		}
	case algebra.AggMax:
		if s.ext[g].IsNull() || types.Compare(d, s.ext[g]) > 0 {
			s.ext[g] = d
		}
	case algebra.AggConstAny:
		if s.ext[g].IsNull() {
			s.ext[g] = d
		}
	}
}

// result is group g's aggregate value.
func (s *aggState) result(g int) types.Datum {
	if s.keeps() {
		return s.ext[g] // NULL when no row arrived
	}
	a := &s.acc[g]
	switch s.item.Func {
	case algebra.AggSum:
		if a.count == 0 {
			return types.NullUnknown
		}
		if a.flt {
			return types.NewFloat(a.sumF + float64(a.sumI))
		}
		return types.NewInt(a.sumI)
	case algebra.AggAvg:
		if a.count == 0 {
			return types.NullUnknown
		}
		return types.NewFloat((a.sumF + float64(a.sumI)) / float64(a.count))
	}
	return types.NewInt(a.count)
}

// aggTable accumulates hash groups for one GroupBy of a hashAggIter
// (a LocalGroupBy below an exchange is one per worker).
//
// A group is an entry of the hash table (its key) and an index into
// the state arrays: group g of states[j] is aggregate j's state, so
// accum folds one aggregate's argument vector into its typed arrays
// with one loop.
//
// Governed tables (govern called) charge each inserted group against
// the query memory accountant and degrade hybrid-hash style once the
// budget is reached: groups already resident keep aggregating in
// place, while input rows belonging to unseen groups are partitioned
// to spill files on the group-key hash. Resident and spilled groups
// are therefore disjoint and each side is complete — resident groups
// render directly, spilled partitions are aggregated recursively at
// the next hash-bit level (drainSpill).
type aggTable struct {
	ht     hashTable
	states []aggState // one per aggregate, indexed by group
	keyBuf types.Row  // a new group's key, for its accounting

	// Governance state (nil ctx = unbounded legacy behavior).
	ctx     *Context
	st      *OpStats
	level   int
	charged int64
	spill   *spillSet
}

// aggPresizeMax caps the group count a table is pre-sized for: the
// estimate behind the hint can be far off, a table grows geometrically
// anyway, and a large pre-size is paid on every execution.
const aggPresizeMax = 128

// newAggTable allocates a table for nKeys grouping columns and the
// aggregates aggs, preallocating for sizeHint groups.
func newAggTable(nKeys int, aggs []algebra.AggItem, sizeHint int) *aggTable {
	sizeHint = min(sizeHint, aggPresizeMax)
	t := &aggTable{ht: newHashTable(nKeys, sizeHint), states: newAggStates(aggs)}
	for j := range t.states {
		t.states[j].fit(0, sizeHint)
		t.states[j].fit(0, 0) // room for sizeHint groups
	}
	return t
}

// govern turns on memory accounting and spilling at the given hash-bit
// level. Only effective when a budget or fault injector is installed —
// otherwise the table stays on the allocation-free legacy path.
func (t *aggTable) govern(ctx *Context, st *OpStats, level int) {
	if ctx == nil || (ctx.MemBudget <= 0 && ctx.Faults == nil) {
		return
	}
	t.ctx = ctx
	t.st = st
	t.level = level
}

// groupBytes approximates one resident group's footprint: key datums,
// each aggregate's state, and hash-table overhead.
func groupBytes(key types.Row, states []aggState) int64 {
	n := types.RowBytes(key) + 64
	for j := range states {
		n += states[j].groupBytes()
	}
	return n
}

// newGroup gives the entry just added, group g, its zero states.
func (t *aggTable) newGroup(g int) int {
	for j := range t.states {
		t.states[j].fit(g, g+1)
	}
	return g
}

// add makes the key vectors' entries at ri (hash hk), the key of input
// row, a new group, governed: once the table spills, the row goes to a
// spill partition and the group is -1.
func (t *aggTable) add(keys []*eval.Vec, ri int, hk uint64, row types.Row) (int, error) {
	if t.spill != nil {
		return -1, t.spill.add(hk, row)
	}
	g := t.newGroup(t.ht.addVec(keys, ri, hk))
	if t.ctx != nil {
		t.keyBuf = t.ht.appendKey(t.keyBuf[:0], g)
		n := groupBytes(t.keyBuf, t.states)
		over, err := t.ctx.grantMem(t.st, "GroupBy", n)
		if err != nil {
			return -1, err
		}
		t.charged += n
		if over && t.level <= maxSpillLevel {
			// Budget reached: later unseen groups go to disk. The group
			// that tripped the budget stays resident (one-group
			// overshoot), keeping the resident/spilled sets disjoint.
			t.spill = newSpillSet(t.ctx, t.level)
			if t.st != nil {
				atomic.AddInt64(&t.st.Spills, 1)
			}
		}
	}
	return g, nil
}

// release returns the table's accounted memory to the budget.
func (t *aggTable) release() {
	if t.ctx != nil && t.charged > 0 {
		t.ctx.releaseMem(t.charged)
		t.charged = 0
	}
}

// aggKeyOrds resolves the grouping columns to input ordinals.
func aggKeyOrds(in *node, gb *algebra.GroupBy) ([]int, error) {
	groupCols := gb.GroupCols.Ordered()
	keyOrds := make([]int, len(groupCols))
	for i, c := range groupCols {
		o, ok := in.ords[c]
		if !ok {
			return nil, fmt.Errorf("exec: grouping column %d missing from input", c)
		}
		keyOrds[i] = o
	}
	return keyOrds, nil
}

// aggVec evaluates a GroupBy's aggregate arguments column-at-a-time:
// one kernel per argument, compiled by one Compiler so identical
// argument subtrees (Q1's l_extendedprice*(1-l_discount) under two
// sums) are evaluated once per batch. It also owns the per-batch
// scratch of the accumulation loops. One aggVec belongs to one
// consumer on one strand — each morsel worker builds its own.
type aggVec struct {
	frame eval.VecFrame
	args  []*eval.VecExpr // nil entries are argument-less aggregates (COUNT(*))
	cols  []int           // input ordinals the arguments read
	reads []int           // the grouping columns, then cols
	vecs  []*eval.Vec
	keys  []*eval.Vec // the grouping columns' vectors
	hash  []uint64    // key hashes, positional (hashKeys)
	sel   []int       // rows of the batch that have a resident group
	gidx  []int32     // their groups, parallel to sel
}

// newAggVec compiles gb's aggregate arguments against the input layout
// ords.
func newAggVec(ctx *Context, ords map[algebra.ColID]int, gb *algebra.GroupBy) *aggVec {
	comp := ctx.compiler(ords)
	av := &aggVec{
		args: make([]*eval.VecExpr, len(gb.Aggs)),
		vecs: make([]*eval.Vec, len(gb.Aggs)),
	}
	for i := range gb.Aggs {
		if gb.Aggs[i].Arg != nil {
			av.args[i] = comp.CompileVec(gb.Aggs[i].Arg)
		}
	}
	av.cols = comp.VecColumns()
	return av
}

// eval evaluates every argument over sel, after gathering the columns
// they read in one pass.
func (av *aggVec) eval(sel []int) error {
	av.frame.Gather(av.cols, sel)
	for j, arg := range av.args {
		if arg == nil {
			continue
		}
		v, err := arg.Eval(&av.frame, sel)
		if err != nil {
			return err
		}
		av.vecs[j] = v
	}
	return nil
}

// keyVecs gathers the grouping columns (at keyOrds) and the arguments'
// columns over sel in one pass, returning the grouping columns.
func (av *aggVec) keyVecs(keyOrds, sel []int) []*eval.Vec {
	if av.reads == nil {
		av.reads = append(append([]int{}, keyOrds...), av.cols...)
	}
	av.frame.Gather(av.reads, sel)
	av.keys = av.keys[:0]
	for _, o := range keyOrds {
		av.keys = append(av.keys, av.frame.Column(o, sel))
	}
	return av.keys
}

// zeroGroups returns n zero group indices (every row in group 0).
func (av *aggVec) zeroGroups(n int) []int32 {
	av.gidx = av.gidx[:0]
	for len(av.gidx) < n {
		av.gidx = append(av.gidx, 0)
	}
	return av.gidx
}

// foldAgg accumulates argument vector v into s under the semantics of
// aggState.add: row sel[k] goes to group gidx[k], in row order, so
// every group sees its rows in input order and float sums come out
// bit-identical to a row-at-a-time fold. The typed loops cover counts
// and the sums and averages of Int and Float vectors; everything else
// (min/max, DISTINCT, mixed-kind or batch-invariant arguments) boxes
// each entry and calls add.
func foldAgg(s *aggState, v *eval.Vec, sel []int, gidx []int32) {
	item := s.item
	if item.Func == algebra.AggCountStar {
		for _, g := range gidx {
			s.acc[g].count++
		}
		return
	}
	if !item.Distinct && !v.Mixed() && !v.IsConst() {
		if v.Kind == types.Unknown {
			return // every argument is NULL: aggregates ignore NULLs
		}
		null := v.Null
		switch item.Func {
		case algebra.AggCount:
			for k, ri := range sel {
				if null == nil || !null[ri] {
					s.acc[gidx[k]].count++
				}
			}
			return
		case algebra.AggSum, algebra.AggAvg:
			switch v.Kind {
			case types.Float:
				for k, ri := range sel {
					if null == nil || !null[ri] {
						a := &s.acc[gidx[k]]
						a.count++
						a.sumF += v.F[ri]
						a.flt = true
					}
				}
				return
			case types.Int:
				for k, ri := range sel {
					if null == nil || !null[ri] {
						a := &s.acc[gidx[k]]
						a.count++
						a.sumI += v.I[ri]
					}
				}
				return
			}
		}
	}
	for k, ri := range sel {
		s.add(int(gidx[k]), v.Datum(ri))
	}
}

// consume drains in into the table a batch at a time.
func (t *aggTable) consume(ctx *Context, in *node, gb *algebra.GroupBy, av *aggVec) error {
	keyOrds, err := aggKeyOrds(in, gb)
	if err != nil {
		return err
	}
	return t.drain(ctx, in.it, gb, av, keyOrds)
}

func (t *aggTable) drain(ctx *Context, it iterator, gb *algebra.GroupBy, av *aggVec, keyOrds []int) error {
	var b Batch
	return drainBatches(it, &b, func(b *Batch) error { return t.accum(ctx, gb, av, keyOrds, b) })
}

// accum folds the live rows of one batch: it resolves each row's group
// once (rows routed to a spill partition drop out of the window),
// evaluates each aggregate argument once over the remaining rows, and
// folds each argument vector into its aggregate's state array.
func (t *aggTable) accum(ctx *Context, gb *algebra.GroupBy, av *aggVec, keyOrds []int, b *Batch) error {
	rows, sel := b.Rows, b.Sel
	av.frame.ResetStored(rows, ctx.params, b.at)
	if sel == nil {
		sel = av.frame.Identity(len(rows))
	}
	if err := ctx.chargeN(len(sel)); err != nil {
		return err
	}
	sel, err := t.resolve(av, rows, sel, keyOrds)
	if err != nil {
		return err
	}
	if err := av.eval(sel); err != nil {
		return err
	}
	for j := range t.states {
		foldAgg(&t.states[j], av.vecs[j], sel, av.gidx)
	}
	return nil
}

// resolve finds (or adds) the group of every selected row from the
// grouping columns' vectors, leaving the groups in av.gidx and
// returning the selection they are parallel to: sel itself, or — when
// rows were routed to a spill partition — the rows that were not. Key
// hashes are types.HashRow's, as spill routing needs.
func (t *aggTable) resolve(av *aggVec, rows []types.Row, sel []int, keyOrds []int) ([]int, error) {
	if len(keyOrds) == 0 && t.ht.len() == 1 {
		// Scalar aggregation past its first row: one resident group.
		av.zeroGroups(len(sel))
		return sel, nil
	}
	keys := av.keyVecs(keyOrds, sel)
	av.hash = hashKeys(av.hash, keys, sel, len(rows))
	// The keys already resident are found for the whole batch at once;
	// the rest are found or added row by row.
	av.gidx = t.ht.findBatch(keys, sel, av.hash, av.gidx)
	spilled, w := false, 0
	for k, ri := range sel {
		g := int(av.gidx[k])
		if g < 0 {
			if g = t.ht.findVec(keys, ri, av.hash[ri]); g < 0 {
				var err error
				if g, err = t.add(keys, ri, av.hash[ri], rows[ri]); err != nil {
					return nil, err
				}
			}
		}
		if g < 0 {
			if !spilled {
				spilled = true
				av.sel = append(av.sel[:0], sel[:k]...)
			}
			continue
		}
		if spilled {
			av.sel = append(av.sel, ri)
		}
		av.gidx[w] = int32(g)
		w++
	}
	av.gidx = av.gidx[:w]
	if spilled {
		return av.sel, nil
	}
	return sel, nil
}

// render materializes the result rows: group key columns followed by
// aggregate results, with the §1.1 scalar-aggregation empty-input row.
func (t *aggTable) render(gb *algebra.GroupBy, out []types.Row) []types.Row {
	return t.renderInto(gb, out[:0], t.spill == nil)
}

// emptyAggRow is the row scalar aggregation returns on empty input
// (paper §1.1): agg(∅) per aggregate.
func emptyAggRow(gb *algebra.GroupBy) types.Row {
	row := make(types.Row, 0, len(gb.Aggs))
	states := newAggStates(gb.Aggs)
	for j := range states {
		states[j].fit(0, 1)
		row = append(row, states[j].result(0))
	}
	return row
}

// renderInto appends the resident groups' result rows to out.
// allowEmptyRow gates the scalar-aggregation empty-input row: it must
// fire only when the whole aggregation — not just this (sub)table —
// saw no groups, so callers with spilled partitions pass false.
func (t *aggTable) renderInto(gb *algebra.GroupBy, out []types.Row, allowEmptyRow bool) []types.Row {
	if t.ht.len() == 0 && allowEmptyRow && gb.Kind == algebra.ScalarGroupBy {
		return append(out, emptyAggRow(gb))
	}
	var arena rowArena
	w := len(t.ht.cols) + len(t.states)
	for g := range t.ht.len() {
		row := t.ht.appendKey(arena.alloc(w), g)
		for j := range t.states {
			row = append(row, t.states[j].result(g))
		}
		out = append(out, row)
	}
	return out
}

// accumFile folds a spill partition file into the table (rows of
// groups this table cannot hold either re-spill at its own level).
func (t *aggTable) accumFile(ctx *Context, gb *algebra.GroupBy, av *aggVec, keyOrds []int, f *spillFile) error {
	it := &fileIter{ctx: ctx, f: f}
	if err := it.Open(); err != nil {
		return err
	}
	defer it.Close()
	return t.drain(ctx, it, gb, av, keyOrds)
}

// drainSpill renders every spilled partition of t: each partition file
// is aggregated into a fresh governed sub-table at the next hash-bit
// level (recursing if the partition itself overflows) and its groups
// appended to out. The partition files are dropped as they are
// consumed, and t's resident memory is released first — the resident
// groups must already be rendered into out by the caller.
func (t *aggTable) drainSpill(ctx *Context, gb *algebra.GroupBy, av *aggVec, keyOrds []int,
	out []types.Row) ([]types.Row, error) {
	if t.spill == nil {
		return out, nil
	}
	spill := t.spill
	t.spill = nil
	t.release()
	if err := spill.finish(); err != nil {
		spill.dropAll()
		return out, err
	}
	for p, f := range spill.parts {
		if f == nil {
			continue
		}
		sub := newAggTable(len(keyOrds), gb.Aggs, 64)
		sub.govern(ctx, t.st, spill.level+1)
		err := sub.accumFile(ctx, gb, av, keyOrds, f)
		if err == nil {
			f.drop(ctx)
			spill.parts[p] = nil
			out = sub.renderInto(gb, out, false)
			out, err = sub.drainSpill(ctx, gb, av, keyOrds, out)
		}
		sub.release()
		if err != nil {
			if sub.spill != nil {
				sub.spill.dropAll()
			}
			spill.dropAll()
			return out, err
		}
	}
	return out, nil
}

// hashAggIter implements vector, scalar and local GroupBy with hash
// grouping. Local GroupBy executes identically to vector GroupBy (the
// paper notes the execution engine need not distinguish them — the
// separate operator only widens the optimizer's reorder freedom).
type hashAggIter struct {
	ctx      *Context
	in       *node
	gb       *algebra.GroupBy
	cols     []algebra.ColID
	sizeHint int
	st       *OpStats

	prepped bool
	av      *aggVec

	out []types.Row
	pos int
}

func (h *hashAggIter) Open() error {
	if err := h.in.it.Open(); err != nil {
		return err
	}
	if !h.prepped {
		h.prepped = true
		h.av = newAggVec(h.ctx, h.in.ords, h.gb)
	}
	tbl := newAggTable(h.gb.GroupCols.Len(), h.gb.Aggs, h.sizeHint)
	tbl.govern(h.ctx, h.st, 0)
	defer tbl.release()
	if err := tbl.consume(h.ctx, h.in, h.gb, h.av); err != nil {
		return err
	}
	if err := h.in.it.Close(); err != nil {
		return err
	}
	h.out = tbl.render(h.gb, h.out)
	if tbl.spill != nil {
		keyOrds, err := aggKeyOrds(h.in, h.gb)
		if err != nil {
			return err
		}
		h.out, err = tbl.drainSpill(h.ctx, h.gb, h.av, keyOrds, h.out)
		if err != nil {
			return err
		}
	}
	h.pos = 0
	return nil
}

// NextBatch serves the materialized result in windows.
func (h *hashAggIter) NextBatch(b *Batch) error {
	b.serve(h.out, &h.pos)
	return nil
}

func (h *hashAggIter) Close() error { return nil }
