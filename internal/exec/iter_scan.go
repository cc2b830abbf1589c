package exec

import (
	"fmt"
	"sort"

	"orthoq/internal/algebra"
	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

// compileGet lowers a (possibly filtered) base-table access at plan
// node at (g, or the Select over it) to a tableIter reading what the
// selector answers for it (Access): an index seek when equality
// conjuncts bind leading index columns to values available at Open
// (constants or correlation parameters) — the correlated index-lookup
// execution the paper calls "the simplest and most common" correlated
// strategy (§4) — an ordered index walk for a Get with an Order, else a
// full scan. The whole filter stays the per-row residual. A seek reads
// its index's matches, then runs the scan kernels over the rows the
// index does not cover: over an index never built, that is a serial
// kernel scan of the whole table. A Get with an Order whose
// permutation is stale (rows inserted since the last build are not in
// index order) scans under an explicit Sort instead. Under parallel
// execution the plan's designated driver Get reads the morsels its
// worker claims, so workers partition the table. A traced seek names
// its index on at's span, as EXPLAIN's seek= does.
func compileGet(ctx *Context, at algebra.Rel, g *algebra.Get, filter algebra.Scalar) (*node, error) {
	tbl, ok := ctx.table(g.Table)
	if !ok {
		return nil, fmt.Errorf("exec: table %q not stored", g.Table)
	}
	n := newNode(nil, g.Cols)
	it := &tableIter{ctx: ctx, tbl: tbl, filt: newFilterPred(ctx, filter, n.ords)}
	n.it = it
	if ctx.morsels != nil && g == ctx.driverGet {
		it.morsels = ctx.morsels
		return n, nil
	}
	a := CompiledAccess(tbl.Schema, g, filter)
	switch {
	case len(g.Order) > 0:
		if a.Index != nil {
			if perm, ok := tbl.OrderedScan(a.Index.Name); ok {
				it.perm, it.reverse = perm, a.Reverse
				return n, nil
			}
		}
		return newNode(&sortIter{ctx: ctx, in: n, by: g.Order, st: ctx.traceStats(g)}, g.Cols), nil
	case a.Seek():
		if st := ctx.traceStats(at); st != nil {
			st.Strategy = "seek=" + a.Index.Name
		}
		it.index, it.keyExprs = a.Index.Name, a.Keys
	}
	return n, nil
}

// tableIter reads a stored table through its filter in two phases.
// First the ordinals ords, gathered into windows in order and handed
// on with the window's ordinals, so kernels gather the typed columns by
// ordinal: a seek's index matches, or an ordered walk's permutation
// (read backward when reverse). Then ranges [lo, hi) of stored rows,
// handed to the kernels zero-copy with their offset: the whole table
// for a scan, the rows past the index's coverage for a seek, each
// claimed morsel for a parallel driver. Every window is as long as the
// consumer's row cap and goes through filt.emit, so under an elided
// sort LIMIT k reads k index entries.
type tableIter struct {
	ctx  *Context
	tbl  *storage.Version
	filt filterPred

	index    string           // a seek's index, "" otherwise
	keyExprs []algebra.Scalar // its key, evaluated at Open
	perm     []int32          // an ordered walk's permutation (covers every row)
	reverse  bool
	morsels  *morselSource // a parallel driver's morsels

	ords   []int32
	pos    int // next position in ords
	lo, hi int // the current range of stored rows

	// key and ords are reused across re-opens: under Apply a seek
	// re-opens once per binding, and rebuilding them was a hot
	// allocation (Lookup retains neither). ords is never perm's array
	// on a seek, so Lookup never writes into a shared permutation.
	key    []types.Datum
	rowBuf []types.Row
	revBuf []int32 // a reverse walk's window of ordinals, in read order
}

func (s *tableIter) Open() error {
	s.pos, s.lo, s.hi = 0, 0, s.tbl.RowCount()
	switch {
	case s.index != "":
		s.key = s.key[:0]
		for _, e := range s.keyExprs {
			d, err := s.ctx.ev.Eval(e, s.ctx.params)
			if err != nil {
				return err
			}
			s.key = append(s.key, d)
		}
		s.ords, s.lo = s.tbl.Lookup(s.index, s.key, s.ords)
	case s.perm != nil:
		s.ords, s.lo = s.perm, s.hi
	case s.morsels != nil:
		s.hi = 0
	}
	return nil
}

func (s *tableIter) NextBatch(b *Batch) error {
	rows := s.tbl.AllRows()
	for s.pos < len(s.ords) {
		end := min(s.pos+b.limit(), len(s.ords))
		win := s.ords[s.pos:end]
		if s.reverse {
			win = s.revBuf[:0]
			for i := s.pos; i < end; i++ {
				win = append(win, s.ords[len(s.ords)-1-i])
			}
			s.revBuf = win
		}
		cand := s.rowBuf[:0]
		for _, o := range win {
			cand = append(cand, rows[o])
		}
		s.rowBuf, s.pos = cand, end
		if ok, err := s.filt.emit(b, cand, eval.Stored{Src: s.tbl, Ords: win}); ok || err != nil {
			return err
		}
	}
	for {
		if s.lo >= s.hi {
			ok := false
			if s.morsels != nil {
				s.lo, s.hi, ok = s.morsels.claim()
			}
			if !ok {
				b.setEmpty()
				return nil
			}
		}
		off := s.lo
		s.lo = min(off+b.limit(), s.hi)
		if ok, err := s.filt.emit(b, rows[off:s.lo], eval.Stored{Src: s.tbl, Off: off}); ok || err != nil {
			return err
		}
	}
}

func (s *tableIter) Close() error { return nil }

// filterIter applies a predicate.
type filterIter struct {
	in   *node
	filt filterPred
	cb   Batch
}

func (f *filterIter) Open() error { return f.in.it.Open() }

// NextBatch refines the input batch's selection vector in place: no
// rows are copied, failing rows are simply dropped from Sel.
func (f *filterIter) NextBatch(b *Batch) error {
	f.cb.Limit = b.Limit
	for {
		if err := f.in.it.NextBatch(&f.cb); err != nil {
			return err
		}
		if f.cb.Len() == 0 {
			b.setEmpty()
			return nil
		}
		if f.filt.trivial {
			b.setStored(f.cb.Rows, f.cb.Sel, f.cb.at)
			return nil
		}
		sel, err := f.filt.narrow(&f.cb)
		if err != nil {
			return err
		}
		if len(sel) == 0 {
			continue
		}
		b.setStored(f.cb.Rows, sel, f.cb.at)
		return nil
	}
}

func (f *filterIter) Close() error { return f.in.it.Close() }

// projectIter computes new columns and narrows passthrough ones.
// Output rows are carved from a rowArena, so consumers may retain
// them.
type projectIter struct {
	ctx  *Context
	in   *node
	proj *algebra.Project
	cols []algebra.ColID
	sel  []int // passthrough ordinals in the input

	prepped bool
	items   []*eval.VecExpr
	frame   eval.VecFrame
	cb      Batch
	arena   rowArena
	outBuf  []types.Row
}

func (p *projectIter) Open() error {
	p.sel = p.sel[:0]
	for _, c := range p.proj.Passthrough.Ordered() {
		o, ok := p.in.ords[c]
		if !ok {
			return fmt.Errorf("exec: project passthrough column %d missing", c)
		}
		p.sel = append(p.sel, o)
	}
	return p.in.it.Open()
}

// NextBatch projects a whole input batch, compacting the selection:
// the passthrough columns are copied row by row, then each item is
// evaluated once over the batch and written down its output column.
func (p *projectIter) NextBatch(b *Batch) error {
	if !p.prepped {
		p.prepped = true
		comp := p.ctx.compiler(p.in.ords)
		p.items = make([]*eval.VecExpr, len(p.proj.Items))
		for i := range p.proj.Items {
			p.items[i] = comp.CompileVec(p.proj.Items[i].Expr)
		}
	}
	p.cb.Limit = b.Limit
	if err := p.in.it.NextBatch(&p.cb); err != nil {
		return err
	}
	live := p.cb.Len()
	if live == 0 {
		b.setEmpty()
		return nil
	}
	p.frame.ResetStored(p.cb.Rows, p.ctx.params, p.cb.at)
	sel := p.cb.Sel
	if sel == nil {
		sel = p.frame.Identity(len(p.cb.Rows))
	}
	w, npass := len(p.cols), len(p.sel)
	out := p.outBuf[:0]
	for _, ri := range sel {
		row, orow := p.cb.Rows[ri], p.arena.alloc(w)
		for _, o := range p.sel {
			orow = append(orow, row[o])
		}
		out = append(out, orow[:w])
	}
	for j, item := range p.items {
		v, err := item.Eval(&p.frame, sel)
		if err != nil {
			return err
		}
		for k, ri := range sel {
			out[k][npass+j] = v.Datum(ri)
		}
	}
	p.outBuf = out
	b.set(out, nil)
	return nil
}

func (p *projectIter) Close() error { return p.in.it.Close() }

// valuesIter emits constant rows.
type valuesIter struct {
	ctx *Context
	v   *algebra.Values
	pos int
	out []types.Row
}

func (v *valuesIter) Open() error {
	v.pos = 0
	return nil
}

func (v *valuesIter) NextBatch(b *Batch) error {
	v.out = v.out[:0]
	for end := min(v.pos+b.limit(), len(v.v.Rows)); v.pos < end; v.pos++ {
		src := v.v.Rows[v.pos]
		row := make(types.Row, len(src))
		for i, e := range src {
			d, err := v.ctx.ev.Eval(e, eval.MapEnv(nil))
			if err != nil {
				return err
			}
			row[i] = d
		}
		v.out = append(v.out, row)
	}
	b.set(v.out, nil)
	return nil
}

func (v *valuesIter) Close() error { return nil }

// rowNumberIter appends a unique integer column.
type rowNumberIter struct {
	in    *node
	n     int64
	cb    Batch
	arena rowArena
	out   []types.Row
}

func (r *rowNumberIter) Open() error {
	r.n = 0
	return r.in.it.Open()
}

func (r *rowNumberIter) NextBatch(b *Batch) error {
	r.cb.Limit = b.Limit
	if err := r.in.it.NextBatch(&r.cb); err != nil {
		return err
	}
	r.out = r.out[:0]
	for i, live := 0, r.cb.Len(); i < live; i++ {
		r.n++
		row := r.cb.Row(i)
		r.out = append(r.out, append(append(r.arena.alloc(len(row)+1), row...), types.NewInt(r.n)))
	}
	b.set(r.out, nil)
	return nil
}

func (r *rowNumberIter) Close() error { return r.in.it.Close() }

// max1RowIter enforces SQL scalar-subquery cardinality (§2.4): more
// than one input row is a run-time error. It asks its input for two
// rows and no more — the one to return and the one that would make it
// an error.
type max1RowIter struct {
	in   *node
	done bool
	cb   Batch
	out  [1]types.Row
}

func (m *max1RowIter) Open() error {
	m.done = false
	return m.in.it.Open()
}

func (m *max1RowIter) NextBatch(b *Batch) error {
	have := 0
	for !m.done && have < 2 {
		m.cb.Limit = 2 - have
		if err := m.in.it.NextBatch(&m.cb); err != nil {
			return err
		}
		n := m.cb.Len()
		if n == 0 {
			break
		}
		if have == 0 {
			m.out[0] = m.cb.Row(0)
		}
		have += n
	}
	m.done = true
	if have > 1 {
		return fmt.Errorf("exec: scalar subquery returned more than one row")
	}
	b.set(m.out[:have], nil)
	return nil
}

func (m *max1RowIter) Close() error { return m.in.it.Close() }

// topIter limits output by capping what it asks of its input: the
// input never produces a row the limit would discard. st is the
// operator's stats slot (parity with sortIter — the slot EXPLAIN
// ANALYZE renders for the Top span).
type topIter struct {
	in   *node
	n    int64
	seen int64
	st   *OpStats
	cb   Batch
}

func (t *topIter) Open() error {
	t.seen = 0
	return t.in.it.Open()
}

func (t *topIter) NextBatch(b *Batch) error {
	remain := t.n - t.seen
	if remain <= 0 {
		b.setEmpty()
		return nil
	}
	t.cb.Limit = int(min(remain, int64(b.limit())))
	if err := t.in.it.NextBatch(&t.cb); err != nil {
		return err
	}
	t.seen += int64(t.cb.Len())
	b.setStored(t.cb.Rows, t.cb.Sel, t.cb.at)
	return nil
}

func (t *topIter) Close() error { return t.in.it.Close() }

// sortIter materializes and sorts. The sort buffer is charged against
// the query memory budget in chunks; sorts cannot spill, so the
// charge aborts only under DisableSpill (with spilling enabled the
// usage is tracked toward the peak statistic — sort inputs in this
// engine sit above aggregations and are small relative to the hash
// state the budget governs).
type sortIter struct {
	ctx  *Context
	in   *node
	by   []algebra.Ordering
	st   *OpStats
	rows []types.Row
	pos  int
	cb   Batch

	charged int64
	pending int64
}

// sortChargeChunk batches sort-buffer memory grants to amortize the
// shared atomic.
const sortChargeChunk = 32 << 10

func (s *sortIter) chargeRow(row types.Row) error {
	s.pending += types.RowBytes(row)
	if s.pending < sortChargeChunk {
		return nil
	}
	n := s.pending
	s.pending = 0
	s.charged += n
	_, err := s.ctx.grantMem(s.st, "Sort", n)
	return err
}

func (s *sortIter) Open() error {
	if s.charged > 0 {
		// Re-open: release the previous run's buffer charge.
		s.ctx.releaseMem(s.charged)
		s.charged = 0
	}
	s.pending = 0
	governed := s.ctx.MemBudget > 0 || s.ctx.Faults != nil
	if err := s.in.it.Open(); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	err := drainRows(s.in.it, &s.cb, func(row types.Row) error {
		s.rows = append(s.rows, row)
		if governed {
			return s.chargeRow(row)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ords := make([]int, len(s.by))
	for i, o := range s.by {
		idx, ok := s.in.ords[o.Col]
		if !ok {
			return fmt.Errorf("exec: sort column %d missing", o.Col)
		}
		ords[i] = idx
	}
	sort.SliceStable(s.rows, func(a, b int) bool {
		for i, o := range s.by {
			c := types.Compare(s.rows[a][ords[i]], s.rows[b][ords[i]])
			if c != 0 {
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	s.pos = 0
	return nil
}

// NextBatch serves windows of the sorted buffer directly.
func (s *sortIter) NextBatch(b *Batch) error {
	b.serve(s.rows, &s.pos)
	return nil
}

func (s *sortIter) Close() error {
	if s.charged > 0 {
		s.ctx.releaseMem(s.charged)
		s.charged = 0
	}
	s.pending = 0
	s.rows = nil
	return s.in.it.Close()
}

// closeBoth closes two inputs even when the first errors, so a failing
// (or fault-injected) close cannot leak the other input's resources.
func closeBoth(l, r *node) error {
	err := l.it.Close()
	if rerr := r.it.Close(); err == nil {
		err = rerr
	}
	return err
}

// unionIter concatenates two inputs with positional column mapping.
type unionIter struct {
	l, r       *node
	lsel, rsel []int
	onRight    bool
	cb         Batch
	arena      rowArena
	out        []types.Row
}

func (u *unionIter) Open() error {
	u.onRight = false
	if err := u.l.it.Open(); err != nil {
		return err
	}
	return u.r.it.Open()
}

func (u *unionIter) NextBatch(b *Batch) error {
	u.cb.Limit = b.Limit
	in, sel := u.l, u.lsel
	for {
		if u.onRight {
			in, sel = u.r, u.rsel
		}
		if err := in.it.NextBatch(&u.cb); err != nil {
			return err
		}
		live := u.cb.Len()
		if live == 0 && !u.onRight {
			u.onRight = true
			continue
		}
		u.out = u.out[:0]
		for i := 0; i < live; i++ {
			u.out = append(u.out, u.arena.mapRow(u.cb.Row(i), sel))
		}
		b.set(u.out, nil)
		return nil
	}
}

func (u *unionIter) Close() error { return closeBoth(u.l, u.r) }

// differenceIter implements EXCEPT ALL via multiset subtraction.
type differenceIter struct {
	l, r       *node
	lsel, rsel []int
	out        []types.Row
	pos        int
}

func (d *differenceIter) Open() error {
	if err := d.l.it.Open(); err != nil {
		return err
	}
	if err := d.r.it.Open(); err != nil {
		return err
	}
	// An entry per distinct right row, counting its copies; a left row
	// that finds a copy left consumes it, the others are the result.
	tbl := newHashTable(len(d.rsel), 0)
	var counts []int
	var kr keyReader
	var cb Batch
	err := drainBatches(d.r.it, &cb, func(b *Batch) error {
		kr.read(b, d.rsel)
		for _, ri := range kr.sel {
			e, added := kr.findOrAdd(&tbl, ri)
			if added {
				counts = append(counts, 0)
			}
			counts[e]++
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.out, d.pos = d.out[:0], 0
	var arena rowArena
	return drainBatches(d.l.it, &cb, func(b *Batch) error {
		kr.read(b, d.lsel)
		for _, ri := range kr.sel {
			if e := tbl.findVec(kr.keys, ri, kr.hash[ri]); e >= 0 && counts[e] > 0 {
				counts[e]--
			} else {
				d.out = append(d.out, arena.mapRow(b.Rows[ri], d.lsel))
			}
		}
		return nil
	})
}

func (d *differenceIter) NextBatch(b *Batch) error {
	b.serve(d.out, &d.pos)
	return nil
}

func (d *differenceIter) Close() error { return closeBoth(d.l, d.r) }

// segmentApplyIter materializes its input, partitions it by the
// segmenting columns, and runs the inner expression once per segment
// (paper §3.4). The inner expression reads the current segment through
// segmentRefIters.
type segmentApplyIter struct {
	ctx     *Context
	sa      *algebra.SegmentApply
	in      *node
	inner   *node
	inSel   []int
	keyOrds []int // the segmenting columns' input ordinals
	kr      keyReader

	segments [][]types.Row
	segPos   int
	innerOn  bool
	cb       Batch
}

func (s *segmentApplyIter) Open() error {
	if err := s.in.it.Open(); err != nil {
		return err
	}
	// An entry per distinct segment key, numbered as segments are.
	tbl := newHashTable(len(s.keyOrds), 0)
	s.segments = s.segments[:0]
	var arena rowArena
	err := drainBatches(s.in.it, &s.cb, func(b *Batch) error {
		s.kr.read(b, s.keyOrds)
		for _, ri := range s.kr.sel {
			si, added := s.kr.findOrAdd(&tbl, ri)
			if added {
				s.segments = append(s.segments, nil)
			}
			s.segments[si] = append(s.segments[si], arena.mapRow(b.Rows[ri], s.inSel))
		}
		return nil
	})
	s.segPos = 0
	s.innerOn = false
	return err
}

// NextBatch forwards the inner expression's batches, segment after
// segment (segments in first-appearance order).
func (s *segmentApplyIter) NextBatch(b *Batch) error {
	s.cb.Limit = b.Limit
	for {
		if !s.innerOn {
			if s.segPos >= len(s.segments) {
				b.setEmpty()
				return nil
			}
			s.ctx.segments[s.sa] = &segmentBinding{cols: s.sa.InputCols, rows: s.segments[s.segPos]}
			s.segPos++
			s.innerOn = true // before Open: Close also tears down a failed Open
			if err := s.inner.it.Open(); err != nil {
				return err
			}
		}
		if err := s.inner.it.NextBatch(&s.cb); err != nil {
			return err
		}
		if s.cb.Len() > 0 {
			b.setStored(s.cb.Rows, s.cb.Sel, s.cb.at)
			return nil
		}
		s.innerOn = false
		if err := s.inner.it.Close(); err != nil {
			return err
		}
	}
}

func (s *segmentApplyIter) Close() error {
	if s.innerOn { // the consumer stopped mid-segment
		s.innerOn = false
		s.inner.it.Close()
	}
	delete(s.ctx.segments, s.sa)
	return s.in.it.Close()
}

// segmentRefIter replays the current segment of its owning
// SegmentApply.
type segmentRefIter struct {
	ctx   *Context
	owner *algebra.SegmentApply
	pos   int
}

func (s *segmentRefIter) Open() error {
	s.pos = 0
	return nil
}

func (s *segmentRefIter) NextBatch(b *Batch) error {
	seg := s.ctx.segments[s.owner]
	if seg == nil {
		return fmt.Errorf("exec: segment not bound")
	}
	b.serve(seg.rows, &s.pos)
	return nil
}

func (s *segmentRefIter) Close() error { return nil }
