package exec

import (
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"orthoq/internal/algebra"
	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
)

// aggState accumulates one aggregate within one group.
type aggState struct {
	count   int64
	sumF    float64
	sumI    int64
	isFloat bool
	anyRow  bool
	minMax  types.Datum
	seen    map[string]struct{} // distinct values
}

func (s *aggState) add(item *algebra.AggItem, d types.Datum) {
	if item.Func == algebra.AggCountStar {
		s.count++
		return
	}
	if d.IsNull() {
		return // aggregates ignore NULLs
	}
	if item.Distinct {
		if s.seen == nil {
			s.seen = make(map[string]struct{})
		}
		key := d.String()
		if _, dup := s.seen[key]; dup {
			return
		}
		s.seen[key] = struct{}{}
	}
	switch item.Func {
	case algebra.AggCount:
		s.count++
	case algebra.AggSum, algebra.AggAvg:
		s.count++
		if d.Kind() == types.Float {
			s.isFloat = true
			s.sumF += d.Float()
		} else {
			s.sumI += d.Int()
		}
		s.anyRow = true
	case algebra.AggMin:
		if !s.anyRow || types.Compare(d, s.minMax) < 0 {
			s.minMax = d
		}
		s.anyRow = true
	case algebra.AggMax:
		if !s.anyRow || types.Compare(d, s.minMax) > 0 {
			s.minMax = d
		}
		s.anyRow = true
	case algebra.AggConstAny:
		if !s.anyRow {
			s.minMax = d
		}
		s.anyRow = true
	}
}

// mergeFor folds another worker's partial state into s under the
// semantics of item. The combination rules are exactly the global
// combiners of the §3.3 LocalGroupBy split (core.TrySplitGroupBy):
// sum of partial sums and counts, min of mins, max of maxes, avg
// recombined from partial sum+count (both live in the same state),
// any-of for ConstAny. DISTINCT aggregates are not mergeable and are
// excluded from parallel plans.
func (s *aggState) mergeFor(item *algebra.AggItem, o *aggState) {
	switch item.Func {
	case algebra.AggMin:
		if o.anyRow && (!s.anyRow || types.Compare(o.minMax, s.minMax) < 0) {
			s.minMax = o.minMax
		}
		s.anyRow = s.anyRow || o.anyRow
	case algebra.AggMax:
		if o.anyRow && (!s.anyRow || types.Compare(o.minMax, s.minMax) > 0) {
			s.minMax = o.minMax
		}
		s.anyRow = s.anyRow || o.anyRow
	case algebra.AggConstAny:
		if !s.anyRow && o.anyRow {
			s.minMax = o.minMax
		}
		s.anyRow = s.anyRow || o.anyRow
	default: // count, count(*), sum, avg: additive partials
		s.count += o.count
		s.sumF += o.sumF
		s.sumI += o.sumI
		s.isFloat = s.isFloat || o.isFloat
		s.anyRow = s.anyRow || o.anyRow
	}
}

func (s *aggState) result(item *algebra.AggItem) types.Datum {
	switch item.Func {
	case algebra.AggCount, algebra.AggCountStar:
		return types.NewInt(s.count)
	case algebra.AggSum:
		if !s.anyRow {
			return types.NullUnknown
		}
		if s.isFloat {
			return types.NewFloat(s.sumF + float64(s.sumI))
		}
		return types.NewInt(s.sumI)
	case algebra.AggAvg:
		if !s.anyRow || s.count == 0 {
			return types.NullUnknown
		}
		return types.NewFloat((s.sumF + float64(s.sumI)) / float64(s.count))
	case algebra.AggMin, algebra.AggMax, algebra.AggConstAny:
		if !s.anyRow {
			return types.NullUnknown
		}
		return s.minMax
	}
	return types.NullUnknown
}

// aggTable accumulates hash groups for one GroupBy; it is used by the
// serial hashAggIter and, one instance per worker, by the parallel
// aggregation exchange (partials merged with aggTable.merge).
//
// A group is an entry of the hash table (its key) and an index into
// the state arrays: states[j][g] is the state of aggregate j, so accum
// folds one aggregate's argument vector into one flat state array with
// a typed loop.
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
	states [][]aggState // [aggregate][group]

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

// newAggTable allocates a table for nKeys grouping columns and nAggs
// aggregates, preallocating for sizeHint groups.
func newAggTable(nKeys, nAggs, sizeHint int) *aggTable {
	return &aggTable{
		ht:     newHashTable(nKeys, min(sizeHint, aggPresizeMax)),
		states: make([][]aggState, nAggs),
	}
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
// one aggState per aggregate, and hash-table overhead.
func groupBytes(key types.Row, nAggs int) int64 {
	return types.RowBytes(key) + int64(unsafe.Sizeof(aggState{}))*int64(nAggs) + 64
}

// newGroup appends the states of the entry just added as group g.
func (t *aggTable) newGroup(g int) int {
	for j := range t.states {
		t.states[j] = append(t.states[j], aggState{})
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
		n := groupBytes(t.ht.key(g), len(t.states))
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

// findForMerge inserts partial states even past the budget: partial
// aggregate states cannot be re-spilled as rows, and the resident
// partials across workers are collectively bounded by the shared
// budget that made them spill in the first place. Usage is still
// tracked for the peak statistic.
func (t *aggTable) findForMerge(key types.Row, hk uint64) int {
	if g := t.ht.find(hk, func(g int) bool { return slices.EqualFunc(t.ht.key(g), key, types.Equal) }); g >= 0 {
		return g
	}
	if t.ctx != nil {
		n := groupBytes(key, len(t.states))
		t.ctx.noteMem(t.st, n)
		t.charged += n
	}
	t.ht.keys = append(t.ht.keys, key...)
	return t.newGroup(t.ht.insert(hk))
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

// foldAgg accumulates argument vector v into states under the
// semantics of aggState.add: row sel[k] goes to group gidx[k], in row
// order, so every (group, aggregate) sees its rows in input order and
// float sums come out bit-identical to a row-at-a-time fold. The
// typed loops cover counts and the sums and averages of Int and Float
// vectors; everything else (min/max, DISTINCT, mixed-kind or
// batch-invariant arguments) boxes each entry and calls add.
func foldAgg(states []aggState, item *algebra.AggItem, v *eval.Vec, sel []int, gidx []int32) {
	if item.Func == algebra.AggCountStar {
		for _, g := range gidx {
			states[g].count++
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
					states[gidx[k]].count++
				}
			}
			return
		case algebra.AggSum, algebra.AggAvg:
			switch v.Kind {
			case types.Float:
				for k, ri := range sel {
					if null == nil || !null[ri] {
						st := &states[gidx[k]]
						st.count++
						st.isFloat = true
						st.sumF += v.F[ri]
						st.anyRow = true
					}
				}
				return
			case types.Int:
				for k, ri := range sel {
					if null == nil || !null[ri] {
						st := &states[gidx[k]]
						st.count++
						st.sumI += v.I[ri]
						st.anyRow = true
					}
				}
				return
			}
		}
	}
	for k, ri := range sel {
		states[gidx[k]].add(item, v.Datum(ri))
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
	av.frame.ResetStored(rows, ctx.params, b.src, b.off)
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
	for j := range gb.Aggs {
		foldAgg(t.states[j], &gb.Aggs[j], av.vecs[j], sel, av.gidx)
	}
	return nil
}

// resolve finds (or adds) the group of every selected row from the
// grouping columns' vectors, leaving the groups in av.gidx and
// returning the selection they are parallel to: sel itself, or — when
// rows were routed to a spill partition — the rows that were not. Key
// hashes are types.HashRow's, as spill routing and the merge need.
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

// merge folds another table's partial groups into t using the §3.3
// local/global combination rules (aggState.mergeFor).
func (t *aggTable) merge(o *aggTable, gb *algebra.GroupBy) {
	for og := range o.ht.len() {
		g := t.findForMerge(o.ht.key(og), o.ht.hashes[og])
		for i := range t.states {
			t.states[i][g].mergeFor(&gb.Aggs[i], &o.states[i][og])
		}
	}
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
	for i := range gb.Aggs {
		var empty aggState
		row = append(row, empty.result(&gb.Aggs[i]))
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
	w := t.ht.n + len(t.states)
	for g := range t.ht.len() {
		row := append(arena.alloc(w), t.ht.key(g)...)
		for i := range t.states {
			row = append(row, t.states[i][g].result(&gb.Aggs[i]))
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
		sub := newAggTable(len(keyOrds), len(gb.Aggs), 64)
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
	tbl := newAggTable(h.gb.GroupCols.Len(), len(h.gb.Aggs), h.sizeHint)
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
