package eval

// Column-at-a-time evaluation. CompileVec translates a scalar into a
// tree of kernels that evaluate over the live rows of a batch — a row
// window plus a selection vector — into typed result vectors, so the
// per-row work of a filter, projection or aggregate argument is a
// tight loop over []int64 / []float64 / []string instead of a call
// call returning a Datum per node per row.
//
// Layout. Vectors are positional: entry ri of a vector belongs to
// rows[ri], whatever the selection, so a kernel evaluated over a
// sub-selection writes exactly the positions it was asked for and
// results of disjoint sub-selections (CASE arms) merge without
// translation. A vector has one kind for all its non-NULL entries;
// batch-invariant operands (constants, parameter slots, outer
// references) are one-entry vectors read through an index mask, so one
// loop serves column-vs-column and column-vs-constant.
//
// Semantics are those of Evaluator.Eval row by row: right-hand sides
// of AND/OR, later IN-list items and CASE arms are evaluated only over
// the sub-selection the left side left undecided, so an error (division
// by zero) is raised for a row exactly when the interpreter would raise
// it for that row. When several rows of a batch fail, the vector path
// reports the first failure in operator order rather than in row order.
// The kind of a NULL result is not tracked (it is unobservable: NULLs
// compare, hash, sort and print alike).
//
// Batch-invariant subtrees (constNode) and anything without a typed
// loop — subqueries, operand kinds outside the typed loops, float
// modulo, a column whose values in this batch are not of one kind — run
// through the interpreter, Evaluator.Eval: once per evaluation for an
// invariant subtree, once per selected row (rowAdapter) for the rest.
// The interpreter defines the semantics, so the fallback is the
// definition, not a second path beside it.
//
// Stored columns. For a batch read straight from a table (ResetStored)
// a column is served as a view — a Vec whose payload is a sub-slice of
// the table's typed column, nothing copied — instead of being gathered.
// A batch of stored rows out of order (an ordered walk, a seek) carries
// their ordinals, and its columns are gathered from the typed column by
// ordinal instead of out of the rows.
// No kernel writes into an input vector, and no frame buffer aliases one.

import (
	"fmt"
	"slices"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// Vec is a positional result vector over one batch. Exactly one
// payload slice is meaningful, chosen by Kind: I for Int, Date and Bool
// (0/1), F for Float, S for String. Kind == Unknown (with D == nil)
// means every evaluated entry is NULL. Entries at positions outside
// the selection the vector was evaluated over are undefined.
type Vec struct {
	Kind types.Kind
	I    []int64
	F    []float64
	S    []string
	// Null marks NULL entries; nil means no evaluated entry is NULL.
	// Payload entries at NULL positions are undefined.
	Null []bool
	// D, when non-nil, is the generic form of a vector whose non-NULL
	// entries are not of one kind; the typed payloads are then unused.
	// Like the payloads it is read through the index mask.
	D []types.Datum

	// mask is -1 for a per-row vector and 0 for a batch-invariant one,
	// whose single entry lives at index 0: readers index with ri&mask.
	mask int

	nullBuf []bool
	dBuf    []types.Datum
}

// IsConst reports whether v holds one batch-invariant entry.
func (v *Vec) IsConst() bool { return v.mask == 0 }

// Mixed reports whether v is in the generic Datum form.
func (v *Vec) Mixed() bool { return v.D != nil }

// NullAt reports whether entry ri is NULL.
func (v *Vec) NullAt(ri int) bool {
	if v.D != nil {
		return v.D[ri&v.mask].IsNull()
	}
	if v.Kind == types.Unknown {
		return true
	}
	return v.Null != nil && v.Null[ri&v.mask]
}

// Datum boxes entry ri.
func (v *Vec) Datum(ri int) types.Datum {
	i := ri & v.mask
	if v.D != nil {
		return v.D[i]
	}
	if v.Kind == types.Unknown || (v.Null != nil && v.Null[i]) {
		return types.Null(v.Kind)
	}
	switch v.Kind {
	case types.Int:
		return types.NewInt(v.I[i])
	case types.Float:
		return types.NewFloat(v.F[i])
	case types.String:
		return types.NewString(v.S[i])
	case types.Date:
		return types.NewDate(v.I[i])
	default: // Bool
		return types.NewBool(v.I[i] != 0)
	}
}

func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, max(n, 2*cap(s)))
}

// reset prepares v as a per-row vector of kind over n positions with
// no NULLs, keeping its buffers.
func (v *Vec) reset(kind types.Kind, n int) {
	v.Kind, v.Null, v.D, v.mask = kind, nil, nil, -1
	switch kind {
	case types.Int, types.Date, types.Bool:
		v.I = grow(v.I, n)
	case types.Float:
		v.F = grow(v.F, n)
	case types.String:
		v.S = grow(v.S, n)
	}
}

// withNulls attaches v's NULL mask over n positions. The caller writes
// every position it evaluates.
func (v *Vec) withNulls(n int) []bool {
	v.nullBuf = grow(v.nullBuf, n)
	v.Null = v.nullBuf
	return v.Null
}

// setConst makes v the batch-invariant vector holding d.
func (v *Vec) setConst(d types.Datum) {
	v.Null, v.D, v.mask = nil, nil, 0
	if d.IsNull() {
		v.Kind = types.Unknown
		return
	}
	v.Kind = d.Kind()
	switch v.Kind {
	case types.Int, types.Date, types.Bool:
		v.I = append(v.I[:0], d.Int())
	case types.Float:
		v.F = append(v.F[:0], d.Float())
	case types.String:
		v.S = append(v.S[:0], d.Str())
	default:
		// A non-NULL datum of no payload kind stays boxed.
		v.Kind = types.Unknown
		v.dBuf = append(v.dBuf[:0], d)
		v.D = v.dBuf
	}
}

// load fills v over sel from get, which returns the datum of a row
// position: typed when the non-NULL datums are of one kind, in the
// generic form otherwise. It is the slow path of column gathering and
// the tail of the row adapter.
func (v *Vec) load(n int, sel []int, get func(ri int) *types.Datum) {
	k, found := types.Unknown, false
	for _, ri := range sel {
		if d := get(ri); !d.IsNull() {
			k, found = d.Kind(), true
			break
		}
	}
	v.reset(k, n)
	if !found {
		return
	}
	if k == types.Unknown {
		// A non-NULL datum of no payload kind: keep the column boxed.
		v.loadMixed(n, sel, get)
		return
	}
	null := v.withNulls(n)
	anyNull := false
	for _, ri := range sel {
		d := get(ri)
		if d.IsNull() {
			null[ri] = true
			anyNull = true
			continue
		}
		if d.Kind() != k {
			v.loadMixed(n, sel, get)
			return
		}
		null[ri] = false
		switch k {
		case types.Int, types.Date, types.Bool:
			v.I[ri] = d.Int()
		case types.Float:
			v.F[ri] = d.Float()
		default:
			v.S[ri] = d.Str()
		}
	}
	if !anyNull {
		v.Null = nil
	}
}

func (v *Vec) loadMixed(n int, sel []int, get func(ri int) *types.Datum) {
	v.Kind, v.Null, v.mask = types.Unknown, nil, -1
	v.dBuf = grow(v.dBuf, n)
	v.D = v.dBuf
	for _, ri := range sel {
		v.D[ri] = *get(ri)
	}
}

// gatherStart prepares v to receive column ord over sel: the kind is
// that of the first selected datum.
func (v *Vec) gatherStart(rows []types.Row, sel []int, ord int) {
	k := types.Unknown
	if len(sel) > 0 {
		if first := &rows[sel[0]][ord]; !first.IsNull() {
			k = first.Kind()
		}
	}
	v.reset(k, len(rows))
}

// gatherRun loads column ord for the selected rows of one run. The
// loops assume what stored columns deliver — one kind, no NULLs — and
// report false at the first datum that is neither (the caller then
// reloads the whole column through load).
func (v *Vec) gatherRun(rows []types.Row, sel []int, ord int) bool {
	k := v.Kind
	switch k {
	case types.Int, types.Date, types.Bool:
		out := v.I
		for _, ri := range sel {
			d := &rows[ri][ord]
			if d.IsNull() || d.Kind() != k {
				return false
			}
			out[ri] = d.Int()
		}
	case types.Float:
		out := v.F
		for _, ri := range sel {
			d := &rows[ri][ord]
			if d.IsNull() || d.Kind() != k {
				return false
			}
			out[ri] = d.Float()
		}
	case types.String:
		out := v.S
		for _, ri := range sel {
			d := &rows[ri][ord]
			if d.IsNull() || d.Kind() != k {
				return false
			}
			out[ri] = d.Str()
		}
	default:
		return len(sel) == 0
	}
	return true
}

// ColumnSource serves stored rows' typed columns (storage.Version):
// column ord holding at least its first end rows, or nil.
type ColumnSource interface {
	Column(ord, end int) *types.Column
}

// Stored places a batch's rows in a table. With Src set, row ri is
// stored row Off+ri of Src, or stored row Ords[ri] when Ords is set.
// The zero value places nothing: the rows are read as they are.
type Stored struct {
	Src  ColumnSource
	Off  int
	Ords []int32
}

// VecFrame is the environment vector kernels evaluate against: the row
// window of one batch, the outer Env for correlation parameters, and
// the per-batch caches (gathered columns, shared subexpressions). A
// frame and the kernels evaluated against it belong to one iterator on
// one strand; its buffers are reused across batches and across Opens.
//
// Contract: between two Resets, the selections passed to the exported
// Eval and Filter entry points must shrink monotonically (each a subset
// of the one before) — a filter narrowing conjunct by conjunct, an
// aggregation evaluating every argument over one selection. Columns are
// gathered once per batch over the selection that first needed them and
// served positionally afterwards.
type VecFrame struct {
	Rows  []types.Row
	Outer Env

	at     Stored // where the rows are stored, if they are
	ordEnd int    // one past the largest of at.Ords; 0 until needed

	stamp uint64 // bumped per batch: validates gathered columns
	epoch uint64 // bumped per (batch, entry selection): validates shared subexpressions
	outer uint64 // bumped per Reset: validates batch-invariant values
	entry []int  // selection of the current exported call
	cols  []*colSlot
	todo  []*colSlot // gatherCols scratch
	one   [1]int     // column scratch
	ident []int
}

type colSlot struct {
	stamp uint64
	ord   int
	ok    bool // the typed gather loops held (see gatherRun)
	vec   Vec  // the gather buffer
	view  Vec  // a stored column's window
	cur   *Vec // what kernels read: &vec or &view
}

// Reset points the frame at a new batch, invalidating its caches.
func (f *VecFrame) Reset(rows []types.Row, outer Env) {
	f.ResetStored(rows, outer, Stored{})
}

// ResetStored is Reset for a batch of stored rows placed by at: the
// columns its source holds are read as views of its arrays, or gathered
// from them by ordinal.
func (f *VecFrame) ResetStored(rows []types.Row, outer Env, at Stored) {
	f.Outer = outer
	f.outer++
	f.NextWindow(rows)
	f.at = at
}

// NextWindow points the frame at the next window of rows under an outer
// Env unchanged since the last Reset (a join's left row over its windows
// of candidates): batch-invariant values are not recomputed.
func (f *VecFrame) NextWindow(rows []types.Row) {
	f.Rows = rows
	f.at, f.ordEnd = Stored{}, 0
	f.stamp++
	f.epoch++
	f.entry = nil
}

// Gather loads the listed column ordinals over sel ahead of the
// kernels that read them, in one tiled pass over the rows. It is an
// optimization for a caller about to evaluate several expressions over
// one selection (aggregate arguments); kernels gather what is missing
// on their own.
func (f *VecFrame) Gather(ords []int, sel []int) {
	f.enter(sel)
	f.gatherCols(ords)
}

// Column returns column ord over sel as the kernels read it: a view of
// a stored column, or gathered from the rows. The vector belongs to the
// frame, is valid until the next Reset, and must not be written.
func (f *VecFrame) Column(ord int, sel []int) *Vec {
	f.enter(sel)
	return f.column(ord)
}

// column returns column ord, gathered over the entry selection.
func (f *VecFrame) column(ord int) *Vec {
	c := f.slot(ord)
	if c.stamp != f.stamp {
		f.one[0] = ord
		f.gatherCols(f.one[:])
	}
	return c.cur
}

// Identity returns the selection of all n rows, [0, n). The slice is
// owned by the frame and valid until the next call.
func (f *VecFrame) Identity(n int) []int {
	for i := len(f.ident); i < n; i++ {
		f.ident = append(f.ident, i)
	}
	return f.ident[:n]
}

func sameSel(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// enter records sel as the selection of an exported call.
func (f *VecFrame) enter(sel []int) {
	if f.entry == nil || !sameSel(sel, f.entry) {
		f.entry = sel
		f.epoch++
	}
}

// slot returns the cache slot of column ord.
func (f *VecFrame) slot(ord int) *colSlot {
	for len(f.cols) <= ord {
		f.cols = append(f.cols, nil)
	}
	if f.cols[ord] == nil {
		f.cols[ord] = &colSlot{}
	}
	return f.cols[ord]
}

// gatherTile is the run length of a multi-column gather: the rows of
// one tile (tens of KiB of datums) stay in the L1 cache while each
// column is read out of them.
const gatherTile = 32

// gatherCols gathers the listed columns over the entry selection, those
// not gathered yet in this batch. Several columns are gathered tile by
// tile, each row's cache lines read once for all of them, instead of
// one full pass over the batch per column.
func (f *VecFrame) gatherCols(ords []int) {
	todo := f.todo[:0]
	for _, ord := range ords {
		if c := f.slot(ord); c.stamp != f.stamp {
			c.stamp = f.stamp
			if f.view(c, ord) {
				continue
			}
			c.cur = &c.vec
			c.ord = ord
			c.ok = true
			c.vec.gatherStart(f.Rows, f.entry, ord)
			todo = append(todo, c)
		}
	}
	f.todo = todo
	if len(todo) == 0 {
		return
	}
	tile := gatherTile
	if len(todo) == 1 {
		tile = len(f.entry)
	}
	for lo := 0; lo < len(f.entry); lo += tile {
		run := f.entry[lo:min(lo+tile, len(f.entry))]
		for _, c := range todo {
			c.ok = c.ok && c.vec.gatherRun(f.Rows, run, c.ord)
		}
	}
	for _, c := range todo {
		if !c.ok {
			rows, ord := f.Rows, c.ord
			c.vec.load(len(rows), f.entry, func(ri int) *types.Datum { return &rows[ri][ord] })
		}
	}
}

// view serves column ord from the source's typed column: as the window
// the batch occupies, capped so that not even an append reaches past
// it, or gathered by ordinal over the entry selection.
func (f *VecFrame) view(c *colSlot, ord int) bool {
	if f.at.Src == nil {
		return false
	}
	if f.at.Ords != nil {
		if f.ordEnd == 0 {
			for _, ri := range f.entry {
				f.ordEnd = max(f.ordEnd, int(f.at.Ords[ri])+1)
			}
		}
		col := f.at.Src.Column(ord, f.ordEnd)
		if col == nil {
			return false
		}
		c.vec.gatherOrds(col, f.at.Ords, f.entry, len(f.Rows))
		c.cur = &c.vec
		return true
	}
	lo, hi := f.at.Off, f.at.Off+len(f.Rows)
	col := f.at.Src.Column(ord, hi)
	if col == nil {
		return false
	}
	c.view = Vec{Kind: col.Kind, mask: -1, I: window(col.I, lo, hi), F: window(col.F, lo, hi),
		S: window(col.S, lo, hi), Null: window(col.Null, lo, hi)}
	c.cur = &c.view
	return true
}

// gatherOrds loads the entries of col at the ordinals ords[ri] of the
// selected positions ri, over n positions.
func (v *Vec) gatherOrds(col *types.Column, ords []int32, sel []int, n int) {
	v.reset(col.Kind, n)
	switch col.Kind {
	case types.Int, types.Date, types.Bool:
		for _, ri := range sel {
			v.I[ri] = col.I[ords[ri]]
		}
	case types.Float:
		for _, ri := range sel {
			v.F[ri] = col.F[ords[ri]]
		}
	case types.String:
		for _, ri := range sel {
			v.S[ri] = col.S[ords[ri]]
		}
	}
	if col.Null != nil && col.Kind != types.Unknown {
		null, anyNull := v.withNulls(n), false
		for _, ri := range sel {
			null[ri] = col.Null[ords[ri]]
			anyNull = anyNull || null[ri]
		}
		if !anyNull {
			v.Null = nil
		}
	}
}

// window returns s[lo:hi:hi], or nil for a nil s.
func window[T any](s []T, lo, hi int) []T {
	if s == nil {
		return nil
	}
	return s[lo:hi:hi]
}

// vecNode is a datum-valued kernel; triNode a predicate kernel
// producing SQL truth values. Both return storage owned by the node,
// valid until its next evaluation.
type vecNode interface {
	eval(f *VecFrame, sel []int) (*Vec, error)
}

type triNode interface {
	evalTri(f *VecFrame, sel []int) ([]types.TriBool, error)
}

// VecExpr is a scalar compiled for column-at-a-time evaluation.
type VecExpr struct{ n vecNode }

// Eval evaluates the expression over the selected rows of f's batch.
// The result is owned by the expression and valid until its next Eval.
func (e *VecExpr) Eval(f *VecFrame, sel []int) (*Vec, error) {
	f.enter(sel)
	return e.n.eval(f, sel)
}

// VecPred is a predicate compiled for column-at-a-time evaluation.
type VecPred struct{ n triNode }

// Filter narrows sel, in place, to the rows for which the predicate is
// TRUE.
func (p *VecPred) Filter(f *VecFrame, sel []int) ([]int, error) {
	if len(sel) == 0 {
		return sel, nil
	}
	f.enter(sel)
	if fn, ok := p.n.(filterNode); ok {
		return fn.filter(f, sel)
	}
	tri, err := p.n.evalTri(f, sel)
	if err != nil {
		return nil, err
	}
	return keepTrue(tri, sel), nil
}

// filterNode is implemented by predicate kernels that can narrow a
// selection directly, without materializing truth values.
type filterNode interface {
	filter(f *VecFrame, sel []int) ([]int, error)
}

// Compiler translates scalars into vector kernels against a fixed row
// layout: Ords maps columns to row ordinals. A column outside the
// layout is batch-invariant and read through the frame's outer Env (a
// join's left row, Apply bindings). Ev supplies parameter slots, read at
// evaluation time, so re-binding parameters between executions is
// visible without recompiling.
type Compiler struct {
	Ev   *Evaluator
	Ords map[algebra.ColID]int

	// shared lists the arithmetic subtrees CompileVec has compiled, so
	// identical subtrees compile to one kernel.
	shared []sharedArith
	// vecCols lists the row ordinals CompileVec kernels read.
	vecCols []int
}

// CompileVec translates s into a vector kernel against c's row layout.
func (c *Compiler) CompileVec(s algebra.Scalar) *VecExpr {
	return &VecExpr{n: c.vecNode(s)}
}

// CompileVecPred translates s into a vector predicate.
func (c *Compiler) CompileVecPred(s algebra.Scalar) *VecPred {
	return &VecPred{n: c.triNode(s)}
}

// CompileVecConjuncts compiles the top-level conjuncts of s separately
// so a batch filter applies them one at a time over a shrinking
// selection. A nil or constant-TRUE s yields no conjuncts.
func (c *Compiler) CompileVecConjuncts(s algebra.Scalar) []*VecPred {
	cs := algebra.Conjuncts(s)
	out := make([]*VecPred, len(cs))
	for i, cj := range cs {
		out[i] = c.CompileVecPred(cj)
	}
	return out
}

// VecColumns lists the row ordinals read by the vector kernels this
// Compiler has compiled so far (the argument of VecFrame.Gather).
func (c *Compiler) VecColumns() []int { return c.vecCols }

// invariant reports whether s has the same value for every row of a
// batch: no column of the row layout, no relational subexpression.
func (c *Compiler) invariant(s algebra.Scalar) bool {
	inv := true
	algebra.VisitScalar(s, func(n algebra.Scalar) {
		switch t := n.(type) {
		case *algebra.ColRef:
			if _, ok := c.Ords[t.Col]; ok {
				inv = false
			}
		case *algebra.Subquery, *algebra.Exists, *algebra.Quantified:
			inv = false
		}
	})
	return inv
}

// constExpr reports whether s can be folded at compile time: no
// column references, no parameter slots, no relational subexpressions.
func constExpr(s algebra.Scalar) bool {
	pure := true
	algebra.VisitScalar(s, func(n algebra.Scalar) {
		switch n.(type) {
		case *algebra.ColRef, *algebra.Param,
			*algebra.Subquery, *algebra.Exists, *algebra.Quantified:
			pure = false
		}
	})
	return pure
}

func (c *Compiler) vecNode(s algebra.Scalar) vecNode {
	if c.invariant(s) {
		n := &constNode{ev: c.Ev, s: s}
		if constExpr(s) {
			n.d, n.err = c.Ev.Eval(s, MapEnv(nil))
			n.s = nil
		}
		return n
	}
	switch t := s.(type) {
	case *algebra.ColRef:
		ord := c.Ords[t.Col]
		if !slices.Contains(c.vecCols, ord) {
			c.vecCols = append(c.vecCols, ord)
		}
		return &colNode{ord: ord}
	case *algebra.Arith:
		for _, m := range c.shared {
			if sameScalar(m.s, s) {
				m.n.shared = true
				return m.n
			}
		}
		n := &arithNode{op: t.Op, l: c.vecNode(t.L), r: c.vecNode(t.R), slow: c.adapter(s)}
		c.shared = append(c.shared, sharedArith{s: t, n: n})
		return n
	case *algebra.Case:
		n := &caseNode{}
		for _, w := range t.Whens {
			n.conds = append(n.conds, c.triNode(w.Cond))
			n.thens = append(n.thens, c.vecNode(w.Then))
		}
		if t.Else != nil {
			n.els = c.vecNode(t.Else)
		}
		return n
	case *algebra.Cmp, *algebra.And, *algebra.Or, *algebra.Not,
		*algebra.IsNull, *algebra.InList, *algebra.Like:
		return &boolNode{p: c.triNode(s)}
	}
	a := c.adapter(s)
	return &a
}

func (c *Compiler) triNode(s algebra.Scalar) triNode {
	switch t := s.(type) {
	case *algebra.Cmp:
		return &cmpNode{op: t.Op, l: c.vecNode(t.L), r: c.vecNode(t.R), slow: c.adapter(s)}
	case *algebra.And:
		n := &andNode{}
		for _, a := range t.Args {
			n.args = append(n.args, c.triNode(a))
		}
		return n
	case *algebra.Or:
		n := &orNode{}
		for _, a := range t.Args {
			n.args = append(n.args, c.triNode(a))
		}
		return n
	case *algebra.Not:
		return &notNode{arg: c.triNode(t.Arg)}
	case *algebra.IsNull:
		return &isNullNode{arg: c.vecNode(t.Arg), neg: t.Negate}
	case *algebra.InList:
		n := &inListNode{arg: c.vecNode(t.Arg), neg: t.Negate, slow: c.adapter(s)}
		for _, le := range t.List {
			n.list = append(n.list, c.vecNode(le))
		}
		return n
	case *algebra.Like:
		return &likeNode{l: c.vecNode(t.L), r: c.vecNode(t.R), neg: t.Negate}
	}
	// Datum-producing nodes (ColRef, Param, Case, Arith, Subquery, ...)
	// in predicate position.
	return &truthNode{v: c.vecNode(s)}
}

// sharedArith is one arithmetic subtree already compiled by this
// Compiler, so identical subtrees (Q1's l_extendedprice*(1-l_discount)
// under two aggregates) compile to one node evaluated once per batch.
type sharedArith struct {
	s *algebra.Arith
	n *arithNode
}

// sameScalar reports structural equality over the node types vector
// arithmetic is built from; anything else compares by identity.
func sameScalar(a, b algebra.Scalar) bool {
	if a == b {
		return true
	}
	switch x := a.(type) {
	case *algebra.ColRef:
		y, ok := b.(*algebra.ColRef)
		return ok && x.Col == y.Col
	case *algebra.Const:
		y, ok := b.(*algebra.Const)
		return ok && x.Val == y.Val
	case *algebra.Param:
		y, ok := b.(*algebra.Param)
		return ok && x.Idx == y.Idx
	case *algebra.Arith:
		y, ok := b.(*algebra.Arith)
		return ok && x.Op == y.Op && sameScalar(x.L, y.L) && sameScalar(x.R, y.R)
	}
	return false
}

// rowAdapter is the per-row fallback of the kernels: it runs the
// interpreter on s for each selected row, over an Env on the row layout
// that falls through to the frame's outer Env. Kernels embed it for
// operands outside their typed loops; nodes without a kernel are a bare
// rowAdapter.
type rowAdapter struct {
	ev  *Evaluator
	s   algebra.Scalar
	env RowEnv
	raw []types.Datum
	out Vec
	tri []types.TriBool
}

func (c *Compiler) adapter(s algebra.Scalar) rowAdapter {
	return rowAdapter{ev: c.Ev, s: s, env: RowEnv{Ords: c.Ords}}
}

func (a *rowAdapter) eval(f *VecFrame, sel []int) (*Vec, error) {
	n := len(f.Rows)
	a.raw = grow(a.raw, n)
	d := a.raw
	a.env.Outer = f.Outer
	for _, ri := range sel {
		a.env.Row = f.Rows[ri]
		v, err := a.ev.Eval(a.s, &a.env)
		if err != nil {
			return nil, err
		}
		d[ri] = v
	}
	a.env.Row = nil
	a.out.load(n, sel, func(ri int) *types.Datum { return &d[ri] })
	return &a.out, nil
}

func (a *rowAdapter) evalTri(f *VecFrame, sel []int) ([]types.TriBool, error) {
	a.tri = grow(a.tri, len(f.Rows))
	a.env.Outer = f.Outer
	for _, ri := range sel {
		a.env.Row = f.Rows[ri]
		v, err := a.ev.EvalBool(a.s, &a.env)
		if err != nil {
			return nil, err
		}
		a.tri[ri] = v
	}
	a.env.Row = nil
	return a.tri, nil
}

// constNode evaluates a batch-invariant scalar through the interpreter
// against the frame's outer Env, so parameter slots and outer references
// read the current bindings — once per Reset of the frame, whatever
// NextWindow does. A subtree with no column, parameter or subquery is
// folded at compile time (s is then nil) and its error, if any, is
// reported on every evaluation.
type constNode struct {
	ev  *Evaluator
	s   algebra.Scalar
	d   types.Datum
	err error
	out Vec

	frame *VecFrame // d, err are s under frame's outer Env at Reset outer
	outer uint64
}

func (n *constNode) eval(f *VecFrame, sel []int) (*Vec, error) {
	if len(sel) == 0 {
		n.out.setConst(types.NullUnknown)
		return &n.out, nil
	}
	if n.s != nil && (n.frame != f || n.outer != f.outer) {
		outer := f.Outer
		if outer == nil {
			outer = MapEnv(nil)
		}
		n.d, n.err = n.ev.Eval(n.s, outer)
		n.frame, n.outer = f, f.outer
	}
	d, err := n.d, n.err
	if err != nil {
		return nil, err
	}
	n.out.setConst(d)
	return &n.out, nil
}

// colNode reads a column of the row layout from the frame's gather
// cache.
type colNode struct{ ord int }

func (n *colNode) eval(f *VecFrame, sel []int) (*Vec, error) {
	return f.column(n.ord), nil
}

// asFloat returns v as a Float vector over sel, converting an Int
// vector into tmp (one entry for a batch-invariant operand).
func asFloat(v *Vec, sel []int, n int, tmp *Vec) *Vec {
	if v.Kind == types.Float {
		return v
	}
	if v.mask == 0 {
		tmp.Kind, tmp.Null, tmp.D, tmp.mask = types.Float, v.Null, nil, 0
		tmp.F = append(tmp.F[:0], float64(v.I[0]))
		return tmp
	}
	tmp.reset(types.Float, n)
	tmp.Null = v.Null
	for _, ri := range sel {
		tmp.F[ri] = float64(v.I[ri])
	}
	return tmp
}

func numeric(k types.Kind) bool { return k == types.Int || k == types.Float }

// arithNode is binary arithmetic with the typed loops of types.Arith:
// Int op Int, numeric promoted to Float, Date ± Int and Date − Date.
type arithNode struct {
	op   types.BinOp
	l, r vecNode
	out  Vec
	tmpL Vec
	tmpR Vec
	slow rowAdapter

	// shared marks a node reached from more than one parent; its result
	// over the entry selection is then kept for the rest of the epoch.
	shared bool
	epoch  uint64
	res    *Vec
}

var errDivZero = fmt.Errorf("division by zero")

func (n *arithNode) eval(f *VecFrame, sel []int) (*Vec, error) {
	if n.shared && n.epoch == f.epoch {
		return n.res, nil
	}
	res, err := n.compute(f, sel)
	if err == nil && n.shared && sameSel(sel, f.entry) {
		n.epoch, n.res = f.epoch, res
	}
	return res, err
}

func (n *arithNode) compute(f *VecFrame, sel []int) (*Vec, error) {
	l, err := n.l.eval(f, sel)
	if err != nil {
		return nil, err
	}
	r, err := n.r.eval(f, sel)
	if err != nil {
		return nil, err
	}
	if l.D != nil || r.D != nil {
		return n.slow.eval(f, sel)
	}
	rows := len(f.Rows)
	out := &n.out
	if l.Kind == types.Unknown || r.Kind == types.Unknown {
		out.reset(types.Unknown, rows)
		return out, nil
	}
	intOps := false
	switch {
	case l.Kind == types.Int && r.Kind == types.Int:
		out.reset(types.Int, rows)
		intOps = true
	case numeric(l.Kind) && numeric(r.Kind) && n.op != types.OpMod:
		l, r = asFloat(l, sel, rows, &n.tmpL), asFloat(r, sel, rows, &n.tmpR)
		out.reset(types.Float, rows)
	case l.Kind == types.Date && r.Kind == types.Int && (n.op == types.OpAdd || n.op == types.OpSub):
		out.reset(types.Date, rows)
		intOps = true
	case l.Kind == types.Date && r.Kind == types.Date && n.op == types.OpSub:
		out.reset(types.Int, rows)
		intOps = true
	default:
		return n.slow.eval(f, sel)
	}
	var null []bool
	if l.Null != nil || r.Null != nil {
		null = out.withNulls(rows)
		ln, lm, rn, rm := l.Null, l.mask, r.Null, r.mask
		for _, ri := range sel {
			null[ri] = (ln != nil && ln[ri&lm]) || (rn != nil && rn[ri&rm])
		}
	}
	if n.op == types.OpMod {
		err = modLoop(l.I, l.mask, r.I, r.mask, sel, out.I, null)
	} else if intOps {
		err = arithLoop(n.op, l.I, l.mask, r.I, r.mask, sel, out.I, null)
	} else {
		err = arithLoop(n.op, l.F, l.mask, r.F, r.mask, sel, out.F, null)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// arithLoop computes out[ri] = a[ri] op b[ri] over sel. null, when
// non-nil, marks positions whose result is NULL: their payload is
// undefined and a zero divisor there is not an error.
func arithLoop[T int64 | float64](op types.BinOp, a []T, am int, b []T, bm int, sel []int, out []T, null []bool) error {
	switch op {
	case types.OpAdd:
		for _, ri := range sel {
			out[ri] = a[ri&am] + b[ri&bm]
		}
	case types.OpSub:
		for _, ri := range sel {
			out[ri] = a[ri&am] - b[ri&bm]
		}
	case types.OpMul:
		for _, ri := range sel {
			out[ri] = a[ri&am] * b[ri&bm]
		}
	case types.OpDiv:
		for _, ri := range sel {
			y := b[ri&bm]
			if y == 0 {
				if null == nil || !null[ri] {
					return errDivZero
				}
				continue
			}
			out[ri] = a[ri&am] / y
		}
	default:
		return fmt.Errorf("unknown operator")
	}
	return nil
}

// modLoop is arithLoop for integer modulo.
func modLoop(a []int64, am int, b []int64, bm int, sel []int, out []int64, null []bool) error {
	for _, ri := range sel {
		y := b[ri&bm]
		if y == 0 {
			if null == nil || !null[ri] {
				return errDivZero
			}
			continue
		}
		out[ri] = a[ri&am] % y
	}
	return nil
}

func triOf(b bool) types.TriBool {
	if b {
		return types.TriTrue
	}
	return types.TriFalse
}

// cmpOrd compares exact-equality kinds (integers, strings).
func cmpOrd[T int64 | string](op algebra.CmpOp, a []T, am int, b []T, bm int, sel []int, out []types.TriBool) {
	switch op {
	case algebra.CmpEq:
		for _, ri := range sel {
			out[ri] = triOf(a[ri&am] == b[ri&bm])
		}
	case algebra.CmpNe:
		for _, ri := range sel {
			out[ri] = triOf(a[ri&am] != b[ri&bm])
		}
	case algebra.CmpLt:
		for _, ri := range sel {
			out[ri] = triOf(a[ri&am] < b[ri&bm])
		}
	case algebra.CmpLe:
		for _, ri := range sel {
			out[ri] = triOf(a[ri&am] <= b[ri&bm])
		}
	case algebra.CmpGt:
		for _, ri := range sel {
			out[ri] = triOf(a[ri&am] > b[ri&bm])
		}
	case algebra.CmpGe:
		for _, ri := range sel {
			out[ri] = triOf(a[ri&am] >= b[ri&bm])
		}
	}
}

// cmpFloat compares floats in types.Compare's order: IEEE's, with a
// NaN after every number and equal to another NaN (the NaN tests are
// x != x).
func cmpFloat(op algebra.CmpOp, a []float64, am int, b []float64, bm int, sel []int, out []types.TriBool) {
	switch op {
	case algebra.CmpEq:
		for _, ri := range sel {
			x, y := a[ri&am], b[ri&bm]
			out[ri] = triOf(x == y || x != x && y != y)
		}
	case algebra.CmpNe:
		for _, ri := range sel {
			x, y := a[ri&am], b[ri&bm]
			out[ri] = triOf(x != y && (x == x || y == y))
		}
	case algebra.CmpLt:
		for _, ri := range sel {
			x, y := a[ri&am], b[ri&bm]
			out[ri] = triOf(x < y || y != y && x == x)
		}
	case algebra.CmpLe:
		for _, ri := range sel {
			x, y := a[ri&am], b[ri&bm]
			out[ri] = triOf(x <= y || y != y)
		}
	case algebra.CmpGt:
		for _, ri := range sel {
			x, y := a[ri&am], b[ri&bm]
			out[ri] = triOf(x > y || x != x && y == y)
		}
	case algebra.CmpGe:
		for _, ri := range sel {
			x, y := a[ri&am], b[ri&bm]
			out[ri] = triOf(x >= y || x != x)
		}
	}
}

// cmpScratch is the conversion scratch of one comparison site.
type cmpScratch struct{ l, r Vec }

// cmpClass resolves two non-generic, not-all-NULL operands to the
// payload class they compare in: Int (the I payload of two Ints, Dates
// or Bools), Float (an Int side converted into tmp) or String. ok=false
// means the kinds have no typed comparison.
func cmpClass(l, r *Vec, sel []int, n int, tmp *cmpScratch) (lo, ro *Vec, class types.Kind, ok bool) {
	switch {
	case l.Kind == r.Kind:
		switch l.Kind {
		case types.Int, types.Date, types.Bool:
			return l, r, types.Int, true
		case types.Float, types.String:
			return l, r, l.Kind, true
		}
	case numeric(l.Kind) && numeric(r.Kind):
		return asFloat(l, sel, n, &tmp.l), asFloat(r, sel, n, &tmp.r), types.Float, true
	}
	return nil, nil, types.Unknown, false
}

// compareVecs writes "l op r" under SQL comparison semantics to out
// over sel. ok=false means the operands have no typed loop (the caller
// falls back to its row adapter).
func compareVecs(op algebra.CmpOp, l, r *Vec, sel []int, n int, out []types.TriBool, tmp *cmpScratch) bool {
	if l.D != nil || r.D != nil {
		return false
	}
	if l.Kind == types.Unknown || r.Kind == types.Unknown {
		for _, ri := range sel {
			out[ri] = types.TriNull
		}
		return true
	}
	lo, ro, class, ok := cmpClass(l, r, sel, n, tmp)
	if !ok {
		return false
	}
	switch class {
	case types.Int:
		cmpOrd(op, lo.I, lo.mask, ro.I, ro.mask, sel, out)
	case types.Float:
		cmpFloat(op, lo.F, lo.mask, ro.F, ro.mask, sel, out)
	default:
		cmpOrd(op, lo.S, lo.mask, ro.S, ro.mask, sel, out)
	}
	for _, v := range [2]*Vec{l, r} {
		if v.Null != nil {
			null, m := v.Null, v.mask
			for _, ri := range sel {
				if null[ri&m] {
					out[ri] = types.TriNull
				}
			}
		}
	}
	return true
}

// cmpNode is a binary comparison.
type cmpNode struct {
	op   algebra.CmpOp
	l, r vecNode
	tri  []types.TriBool
	tmp  cmpScratch
	slow rowAdapter
}

func (n *cmpNode) evalTri(f *VecFrame, sel []int) ([]types.TriBool, error) {
	l, err := n.l.eval(f, sel)
	if err != nil {
		return nil, err
	}
	r, err := n.r.eval(f, sel)
	if err != nil {
		return nil, err
	}
	n.tri = grow(n.tri, len(f.Rows))
	if !compareVecs(n.op, l, r, sel, len(f.Rows), n.tri, &n.tmp) {
		return n.slow.evalTri(f, sel)
	}
	return n.tri, nil
}

// keepOrd narrows sel in place to the positions where "a op b" holds,
// for exact-equality kinds; keepFloat is its float form (see cmpFloat).
func keepOrd[T int64 | string](op algebra.CmpOp, a []T, am int, b []T, bm int, sel []int) []int {
	k := 0
	switch op {
	case algebra.CmpEq:
		for _, ri := range sel {
			if a[ri&am] == b[ri&bm] {
				sel[k] = ri
				k++
			}
		}
	case algebra.CmpNe:
		for _, ri := range sel {
			if a[ri&am] != b[ri&bm] {
				sel[k] = ri
				k++
			}
		}
	case algebra.CmpLt:
		for _, ri := range sel {
			if a[ri&am] < b[ri&bm] {
				sel[k] = ri
				k++
			}
		}
	case algebra.CmpLe:
		for _, ri := range sel {
			if a[ri&am] <= b[ri&bm] {
				sel[k] = ri
				k++
			}
		}
	case algebra.CmpGt:
		for _, ri := range sel {
			if a[ri&am] > b[ri&bm] {
				sel[k] = ri
				k++
			}
		}
	case algebra.CmpGe:
		for _, ri := range sel {
			if a[ri&am] >= b[ri&bm] {
				sel[k] = ri
				k++
			}
		}
	}
	return sel[:k]
}

func keepFloat(op algebra.CmpOp, a []float64, am int, b []float64, bm int, sel []int) []int {
	k := 0
	switch op {
	case algebra.CmpEq:
		for _, ri := range sel {
			if x, y := a[ri&am], b[ri&bm]; x == y || x != x && y != y {
				sel[k] = ri
				k++
			}
		}
	case algebra.CmpNe:
		for _, ri := range sel {
			if x, y := a[ri&am], b[ri&bm]; x != y && (x == x || y == y) {
				sel[k] = ri
				k++
			}
		}
	case algebra.CmpLt:
		for _, ri := range sel {
			if x, y := a[ri&am], b[ri&bm]; x < y || y != y && x == x {
				sel[k] = ri
				k++
			}
		}
	case algebra.CmpLe:
		for _, ri := range sel {
			if x, y := a[ri&am], b[ri&bm]; x <= y || y != y {
				sel[k] = ri
				k++
			}
		}
	case algebra.CmpGt:
		for _, ri := range sel {
			if x, y := a[ri&am], b[ri&bm]; x > y || x != x && y == y {
				sel[k] = ri
				k++
			}
		}
	case algebra.CmpGe:
		for _, ri := range sel {
			if x, y := a[ri&am], b[ri&bm]; x >= y || x != x {
				sel[k] = ri
				k++
			}
		}
	}
	return sel[:k]
}

// filter is the selection-narrowing form of the comparison for
// NULL-free operands of one payload class: one compare-and-compact
// loop, no truth-value vector.
func (n *cmpNode) filter(f *VecFrame, sel []int) ([]int, error) {
	l, err := n.l.eval(f, sel)
	if err != nil {
		return nil, err
	}
	r, err := n.r.eval(f, sel)
	if err != nil {
		return nil, err
	}
	if l.D == nil && r.D == nil && l.Null == nil && r.Null == nil &&
		l.Kind != types.Unknown && r.Kind != types.Unknown {
		if lo, ro, class, ok := cmpClass(l, r, sel, len(f.Rows), &n.tmp); ok {
			switch class {
			case types.Int:
				return keepOrd(n.op, lo.I, lo.mask, ro.I, ro.mask, sel), nil
			case types.Float:
				return keepFloat(n.op, lo.F, lo.mask, ro.F, ro.mask, sel), nil
			default:
				return keepOrd(n.op, lo.S, lo.mask, ro.S, ro.mask, sel), nil
			}
		}
	}
	n.tri = grow(n.tri, len(f.Rows))
	tri := n.tri
	if !compareVecs(n.op, l, r, sel, len(f.Rows), tri, &n.tmp) {
		if tri, err = n.slow.evalTri(f, sel); err != nil {
			return nil, err
		}
	}
	return keepTrue(tri, sel), nil
}

func keepTrue(tri []types.TriBool, sel []int) []int {
	k := 0
	for _, ri := range sel {
		if tri[ri] == types.TriTrue {
			sel[k] = ri
			k++
		}
	}
	return sel[:k]
}

// andNode is n-ary conjunction: each argument is evaluated over the
// rows not yet FALSE.
type andNode struct {
	args []triNode
	acc  []types.TriBool
	cur  []int
}

func (n *andNode) evalTri(f *VecFrame, sel []int) ([]types.TriBool, error) {
	n.acc = grow(n.acc, len(f.Rows))
	acc := n.acc
	for _, ri := range sel {
		acc[ri] = types.TriTrue
	}
	cur := append(n.cur[:0], sel...)
	for _, a := range n.args {
		if len(cur) == 0 {
			break
		}
		v, err := a.evalTri(f, cur)
		if err != nil {
			return nil, err
		}
		k := 0
		for _, ri := range cur {
			t := acc[ri].And(v[ri])
			acc[ri] = t
			if t != types.TriFalse {
				cur[k] = ri
				k++
			}
		}
		cur = cur[:k]
	}
	n.cur = cur
	return acc, nil
}

// orNode is n-ary disjunction: each argument is evaluated over the
// rows not yet TRUE.
type orNode struct {
	args []triNode
	acc  []types.TriBool
	cur  []int
}

func (n *orNode) evalTri(f *VecFrame, sel []int) ([]types.TriBool, error) {
	n.acc = grow(n.acc, len(f.Rows))
	acc := n.acc
	for _, ri := range sel {
		acc[ri] = types.TriFalse
	}
	cur := append(n.cur[:0], sel...)
	for _, a := range n.args {
		if len(cur) == 0 {
			break
		}
		v, err := a.evalTri(f, cur)
		if err != nil {
			return nil, err
		}
		k := 0
		for _, ri := range cur {
			t := acc[ri].Or(v[ri])
			acc[ri] = t
			if t != types.TriTrue {
				cur[k] = ri
				k++
			}
		}
		cur = cur[:k]
	}
	n.cur = cur
	return acc, nil
}

type notNode struct {
	arg triNode
	tri []types.TriBool
}

func (n *notNode) evalTri(f *VecFrame, sel []int) ([]types.TriBool, error) {
	v, err := n.arg.evalTri(f, sel)
	if err != nil {
		return nil, err
	}
	n.tri = grow(n.tri, len(f.Rows))
	for _, ri := range sel {
		n.tri[ri] = v[ri].Not()
	}
	return n.tri, nil
}

type isNullNode struct {
	arg vecNode
	neg bool
	tri []types.TriBool
}

func (n *isNullNode) evalTri(f *VecFrame, sel []int) ([]types.TriBool, error) {
	v, err := n.arg.eval(f, sel)
	if err != nil {
		return nil, err
	}
	n.tri = grow(n.tri, len(f.Rows))
	for _, ri := range sel {
		n.tri[ri] = triOf(v.NullAt(ri) != n.neg)
	}
	return n.tri, nil
}

// likeNode matches the string operand vector against the pattern,
// types.Like per entry.
type likeNode struct {
	l, r vecNode
	neg  bool
	tri  []types.TriBool
}

func (n *likeNode) evalTri(f *VecFrame, sel []int) ([]types.TriBool, error) {
	l, err := n.l.eval(f, sel)
	if err != nil {
		return nil, err
	}
	r, err := n.r.eval(f, sel)
	if err != nil {
		return nil, err
	}
	n.tri = grow(n.tri, len(f.Rows))
	for _, ri := range sel {
		t := types.Like(l.Datum(ri), r.Datum(ri))
		if n.neg {
			t = t.Not()
		}
		n.tri[ri] = t
	}
	return n.tri, nil
}

// inListNode is "arg IN (list...)": each list item is evaluated, and
// compared, only over the rows no earlier item matched.
type inListNode struct {
	arg  vecNode
	list []vecNode
	neg  bool
	acc  []types.TriBool
	tri  []types.TriBool
	cur  []int
	tmp  cmpScratch
	slow rowAdapter
}

func (n *inListNode) evalTri(f *VecFrame, sel []int) ([]types.TriBool, error) {
	arg, err := n.arg.eval(f, sel)
	if err != nil {
		return nil, err
	}
	rows := len(f.Rows)
	n.acc, n.tri = grow(n.acc, rows), grow(n.tri, rows)
	acc := n.acc
	for _, ri := range sel {
		acc[ri] = types.TriFalse
	}
	cur := append(n.cur[:0], sel...)
	for _, le := range n.list {
		if len(cur) == 0 {
			break
		}
		item, err := le.eval(f, cur)
		if err != nil {
			return nil, err
		}
		if !compareVecs(algebra.CmpEq, arg, item, cur, rows, n.tri, &n.tmp) {
			n.cur = cur
			return n.slow.evalTri(f, sel)
		}
		k := 0
		for _, ri := range cur {
			t := acc[ri].Or(n.tri[ri])
			acc[ri] = t
			if t != types.TriTrue {
				cur[k] = ri
				k++
			}
		}
		cur = cur[:k]
	}
	n.cur = cur
	if n.neg {
		for _, ri := range sel {
			acc[ri] = acc[ri].Not()
		}
	}
	return acc, nil
}

// truthNode reads a datum-valued kernel in predicate position
// (DatumTri per entry).
type truthNode struct {
	v   vecNode
	tri []types.TriBool
}

func (n *truthNode) evalTri(f *VecFrame, sel []int) ([]types.TriBool, error) {
	v, err := n.v.eval(f, sel)
	if err != nil {
		return nil, err
	}
	n.tri = grow(n.tri, len(f.Rows))
	tri := n.tri
	switch {
	case v.D != nil:
		for _, ri := range sel {
			tri[ri] = DatumTri(v.D[ri&v.mask])
		}
	case v.Kind == types.Bool:
		for _, ri := range sel {
			tri[ri] = triOf(v.I[ri&v.mask] != 0)
		}
	default:
		// Non-boolean non-NULL counts as true (DatumTri).
		for _, ri := range sel {
			tri[ri] = types.TriTrue
		}
	}
	if v.D == nil {
		for _, ri := range sel {
			if v.NullAt(ri) {
				tri[ri] = types.TriNull
			}
		}
	}
	return tri, nil
}

// boolNode boxes a predicate kernel's truth values as a Bool vector
// (a comparison in datum position).
type boolNode struct {
	p   triNode
	out Vec
}

func (n *boolNode) eval(f *VecFrame, sel []int) (*Vec, error) {
	tri, err := n.p.evalTri(f, sel)
	if err != nil {
		return nil, err
	}
	rows := len(f.Rows)
	n.out.reset(types.Bool, rows)
	null := n.out.withNulls(rows)
	anyNull := false
	for _, ri := range sel {
		t := tri[ri]
		null[ri] = t == types.TriNull
		anyNull = anyNull || t == types.TriNull
		n.out.I[ri] = int64(t & 1)
	}
	if !anyNull {
		n.out.Null = nil
	}
	return &n.out, nil
}

// caseNode is searched CASE: each WHEN condition is evaluated over the
// rows no earlier arm took, each THEN over the rows its condition made
// TRUE, ELSE over the rest. Arms of one kind merge into a typed
// vector; arms of different kinds (a Float THEN with an Int ELSE)
// merge into the generic form.
type caseNode struct {
	conds []triNode
	thens []vecNode
	els   vecNode
	out   Vec
	rest  []int
	taken []int
	done  []int // positions merged so far
}

func (n *caseNode) eval(f *VecFrame, sel []int) (*Vec, error) {
	rows := len(f.Rows)
	out := &n.out
	out.reset(types.Unknown, rows)
	null := out.withNulls(rows)
	n.done = n.done[:0]
	rest := append(n.rest[:0], sel...)
	n.rest = rest
	for i, cond := range n.conds {
		if len(rest) == 0 {
			break
		}
		tri, err := cond.evalTri(f, rest)
		if err != nil {
			return nil, err
		}
		taken := n.taken[:0]
		k := 0
		for _, ri := range rest {
			if tri[ri] == types.TriTrue {
				taken = append(taken, ri)
			} else {
				rest[k] = ri
				k++
			}
		}
		rest = rest[:k]
		n.taken = taken
		if len(taken) == 0 {
			continue
		}
		v, err := n.thens[i].eval(f, taken)
		if err != nil {
			return nil, err
		}
		n.merge(v, taken, rows)
	}
	if len(rest) > 0 {
		if n.els != nil {
			v, err := n.els.eval(f, rest)
			if err != nil {
				return nil, err
			}
			n.merge(v, rest, rows)
		} else {
			for _, ri := range rest {
				null[ri] = true
				if out.D != nil {
					out.D[ri] = types.NullUnknown
				}
			}
		}
	}
	if out.D != nil {
		out.Null = nil
	}
	return out, nil
}

// merge copies arm result v at positions at into the output.
func (n *caseNode) merge(v *Vec, at []int, rows int) {
	out := &n.out
	for _, ri := range at {
		out.nullBuf[ri] = v.NullAt(ri)
	}
	switch {
	case out.D != nil:
	case v.D != nil || (v.Kind != types.Unknown && out.Kind != types.Unknown && v.Kind != out.Kind):
		// Kinds diverge: box what has been merged so far.
		out.dBuf = grow(out.dBuf, rows)
		for _, ri := range n.done {
			out.dBuf[ri] = out.Datum(ri)
		}
		out.D, out.Kind = out.dBuf, types.Unknown
	case v.Kind != types.Unknown && out.Kind == types.Unknown:
		out.Kind = v.Kind
		switch v.Kind {
		case types.Float:
			out.F = grow(out.F, rows)
		case types.String:
			out.S = grow(out.S, rows)
		default:
			out.I = grow(out.I, rows)
		}
	}
	switch {
	case out.D != nil:
		for _, ri := range at {
			out.D[ri] = v.Datum(ri)
		}
	case v.Kind == types.Unknown:
	case out.Kind == types.Float:
		for _, ri := range at {
			out.F[ri] = v.F[ri&v.mask]
		}
	case out.Kind == types.String:
		for _, ri := range at {
			out.S[ri] = v.S[ri&v.mask]
		}
	default:
		for _, ri := range at {
			out.I[ri] = v.I[ri&v.mask]
		}
	}
	n.done = append(n.done, at...)
}
