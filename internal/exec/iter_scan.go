package exec

import (
	"fmt"
	"sort"

	"orthoq/internal/algebra"
	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

// compileGet lowers a (possibly filtered) base-table access, choosing
// an index seek when equality conjuncts bind the leading columns of an
// index with values available at Open time (constants or correlation
// parameters) — the correlated index-lookup execution the paper calls
// "the simplest and most common" correlated strategy (§4). Under
// parallel execution the plan's designated driver Get instead lowers
// to a morsel-claiming scan so workers partition the table.
func compileGet(ctx *Context, g *algebra.Get, filter algebra.Scalar) (*node, error) {
	tbl, ok := ctx.table(g.Table)
	if !ok {
		return nil, fmt.Errorf("exec: table %q not stored", g.Table)
	}
	if ctx.morsels != nil && g == ctx.driverGet {
		it := &morselScanIter{ctx: ctx, tbl: tbl, cols: g.Cols, pred: filter, src: ctx.morsels}
		return newNode(it, g.Cols), nil
	}
	if len(g.Order) > 0 {
		// An Order requirement precludes the seek path: the scan must
		// deliver every row in index order, with the filter as residual.
		return compileOrderedGet(ctx, g, tbl, filter)
	}
	index, keyExprs, pred := planSeek(tbl, g, filter)
	if index != "" {
		it := &seekIter{ctx: ctx, tbl: tbl, index: index, keyExprs: keyExprs,
			cols: g.Cols, pred: pred}
		return newNode(it, g.Cols), nil
	}
	it := &scanIter{ctx: ctx, tbl: tbl, cols: g.Cols, pred: pred}
	return newNode(it, g.Cols), nil
}

// planSeek chooses the access path for a filtered Get: the index with
// the longest prefix fully bound by equality conjuncts whose
// comparands are evaluable at Open. index == "" means full scan. The
// returned pred is the predicate to re-check per row (bound conjuncts
// are retained for NULL semantics). Pure — shared by compileGet and
// the parallel-eligibility analysis, which must know whether a serial
// compile would seek.
func planSeek(tbl *storage.Version, g *algebra.Get, filter algebra.Scalar) (index string, keyExprs []algebra.Scalar, pred algebra.Scalar) {
	selfCols := algebra.NewColSet(g.Cols...)
	type seekKey struct {
		ord  int // table column ordinal
		expr algebra.Scalar
	}
	var keys []seekKey
	var residual []algebra.Scalar
	for _, c := range algebra.Conjuncts(filter) {
		cmp, isCmp := c.(*algebra.Cmp)
		if isCmp && cmp.Op == algebra.CmpEq {
			l, lok := cmp.L.(*algebra.ColRef)
			r := cmp.R
			if !lok || !selfCols.Contains(l.Col) {
				if rr, rok := cmp.R.(*algebra.ColRef); rok && selfCols.Contains(rr.Col) {
					l, r = rr, cmp.L
					lok = true
				} else {
					lok = false
				}
			}
			if lok && !algebra.ScalarCols(r).Intersects(selfCols) && !algebra.HasSubquery(r) {
				for ord, id := range g.Cols {
					if id == l.Col {
						keys = append(keys, seekKey{ord: ord, expr: r})
					}
				}
				residual = append(residual, c) // re-checked for NULL semantics
				continue
			}
		}
		residual = append(residual, c)
	}

	// Find the index with the longest fully-bound prefix.
	var bestName string
	var bestKeys []seekKey
	if len(keys) > 0 {
		byOrd := map[int]seekKey{}
		for _, k := range keys {
			byOrd[k.ord] = k
		}
		for _, idx := range tbl.Schema.Indexes {
			var prefix []seekKey
			for _, ord := range idx.Cols {
				k, ok := byOrd[ord]
				if !ok {
					break
				}
				prefix = append(prefix, k)
			}
			// hash indexes require the full column list bound
			if !idx.Ordered && len(prefix) != len(idx.Cols) {
				continue
			}
			if len(prefix) > len(bestKeys) {
				bestKeys = prefix
				bestName = idx.Name
			}
		}
	}

	pred = algebra.ConjoinAll(residual...)
	if bestName == "" || !tbl.HasIndex(bestName) {
		return "", nil, pred
	}
	keyExprs = make([]algebra.Scalar, len(bestKeys))
	for i, k := range bestKeys {
		keyExprs[i] = k.expr
	}
	return bestName, keyExprs, pred
}

// scanIter is a filtered full table scan.
type scanIter struct {
	ctx  *Context
	tbl  storageTable
	cols []algebra.ColID
	pred algebra.Scalar
	pos  int
	ords map[algebra.ColID]int
	filt filterPred
}

// storageTable is the minimal surface scan/seek need (eases testing).
type storageTable interface {
	AllRows() []types.Row
	LookupOrds(index string, key []types.Datum) []int
}

func (s *scanIter) Open() error {
	s.pos = 0
	if s.ords == nil {
		s.ords = make(map[algebra.ColID]int, len(s.cols))
		for i, c := range s.cols {
			s.ords[c] = i
		}
	}
	s.filt.open(s.ctx, s.pred, s.ords)
	return nil
}

// NextBatch serves windows of the table's row storage directly,
// narrowing each window with the filter's vector conjuncts.
func (s *scanIter) NextBatch(b *Batch) error {
	rows := s.tbl.AllRows()
	for {
		if s.pos >= len(rows) {
			b.setEmpty()
			return nil
		}
		end := s.pos + BatchSize
		if end > len(rows) {
			end = len(rows)
		}
		cand := rows[s.pos:end]
		s.pos = end
		if err := s.ctx.chargeN(len(cand)); err != nil {
			return err
		}
		if s.filt.trivial {
			b.Rows, b.Sel = cand, nil
			return nil
		}
		sel, err := s.filt.narrow(cand, nil)
		if err != nil {
			return err
		}
		if len(sel) == 0 {
			continue
		}
		b.Rows, b.Sel = cand, sel
		return nil
	}
}

func (s *scanIter) Next() (types.Row, bool, error) {
	rows := s.tbl.AllRows()
	for s.pos < len(rows) {
		row := rows[s.pos]
		s.pos++
		if err := s.ctx.charge(); err != nil {
			return nil, false, err
		}
		ok, err := s.filt.pass(row)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
	}
	return nil, false, nil
}

func (s *scanIter) Close() error { return nil }

// seekIter looks up rows via an index; key expressions are evaluated
// at Open (they may reference correlation parameters).
type seekIter struct {
	ctx      *Context
	tbl      storageTable
	index    string
	keyExprs []algebra.Scalar
	cols     []algebra.ColID
	pred     algebra.Scalar
	matches  []int
	pos      int
	ords     map[algebra.ColID]int
	filt     filterPred

	// key is reused across re-opens: under Apply the iterator re-opens
	// once per outer row and rebuilding the slice was a hot allocation
	// (LookupOrds does not retain it).
	key []types.Datum

	rowBuf []types.Row
}

func (s *seekIter) Open() error {
	if s.ords == nil {
		s.ords = make(map[algebra.ColID]int, len(s.cols))
		for i, c := range s.cols {
			s.ords[c] = i
		}
	}
	s.filt.open(s.ctx, s.pred, s.ords)
	s.key = s.key[:0]
	for _, e := range s.keyExprs {
		d, err := s.ctx.ev.Eval(e, s.ctx.params)
		if err != nil {
			return err
		}
		s.key = append(s.key, d)
	}
	s.matches = s.tbl.LookupOrds(s.index, s.key)
	s.pos = 0
	return nil
}

// NextBatch gathers matched rows into an iterator-owned header buffer
// and filters them with the residual's vector conjuncts.
func (s *seekIter) NextBatch(b *Batch) error {
	rows := s.tbl.AllRows()
	for {
		if s.pos >= len(s.matches) {
			b.setEmpty()
			return nil
		}
		end := s.pos + BatchSize
		if end > len(s.matches) {
			end = len(s.matches)
		}
		cand := s.rowBuf[:0]
		for _, ri := range s.matches[s.pos:end] {
			cand = append(cand, rows[ri])
		}
		s.rowBuf = cand
		s.pos = end
		if err := s.ctx.chargeN(len(cand)); err != nil {
			return err
		}
		if s.filt.trivial {
			b.Rows, b.Sel = cand, nil
			return nil
		}
		sel, err := s.filt.narrow(cand, nil)
		if err != nil {
			return err
		}
		if len(sel) == 0 {
			continue
		}
		b.Rows, b.Sel = cand, sel
		return nil
	}
}

func (s *seekIter) Next() (types.Row, bool, error) {
	rows := s.tbl.AllRows()
	for s.pos < len(s.matches) {
		row := rows[s.matches[s.pos]]
		s.pos++
		if err := s.ctx.charge(); err != nil {
			return nil, false, err
		}
		ok, err := s.filt.pass(row)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
	}
	return nil, false, nil
}

func (s *seekIter) Close() error { return nil }

// filterIter applies a predicate.
type filterIter struct {
	ctx  *Context
	in   *node
	pred algebra.Scalar
	filt filterPred
	cb   Batch
}

func (f *filterIter) Open() error {
	f.filt.open(f.ctx, f.pred, f.in.ords)
	return f.in.it.Open()
}

// NextBatch refines the input batch's selection vector in place: no
// rows are copied, failing rows are simply dropped from Sel.
func (f *filterIter) NextBatch(b *Batch) error {
	for {
		if err := nextBatch(f.in.it, &f.cb); err != nil {
			return err
		}
		if f.cb.Len() == 0 {
			b.setEmpty()
			return nil
		}
		if f.filt.trivial {
			b.Rows, b.Sel = f.cb.Rows, f.cb.Sel
			return nil
		}
		sel, err := f.filt.narrow(f.cb.Rows, f.cb.Sel)
		if err != nil {
			return err
		}
		if len(sel) == 0 {
			continue
		}
		b.Rows, b.Sel = f.cb.Rows, sel
		return nil
	}
}

func (f *filterIter) Next() (types.Row, bool, error) {
	for {
		row, ok, err := f.in.it.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := f.filt.pass(row)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return row, true, nil
		}
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
	env  rowEnv
	sel  []int // passthrough ordinals in the input

	prepped bool
	items   []*eval.VecExpr
	frame   eval.VecFrame
	cb      Batch
	arena   rowArena
	outBuf  []types.Row
}

func (p *projectIter) Open() error {
	p.env = rowEnv{ctx: p.ctx, ords: p.in.ords}
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

func (p *projectIter) Next() (types.Row, bool, error) {
	row, ok, err := p.in.it.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := p.arena.alloc(len(p.cols))
	for _, o := range p.sel {
		out = append(out, row[o])
	}
	p.env.row = row
	for _, item := range p.proj.Items {
		d, err := p.ctx.ev.Eval(item.Expr, &p.env)
		if err != nil {
			return nil, false, err
		}
		out = append(out, d)
	}
	return out, true, nil
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
	if err := nextBatch(p.in.it, &p.cb); err != nil {
		return err
	}
	live := p.cb.Len()
	if live == 0 {
		b.setEmpty()
		return nil
	}
	p.frame.Reset(p.cb.Rows, p.ctx.params)
	sel := p.cb.Sel
	if sel == nil {
		sel = p.frame.Identity(len(p.cb.Rows))
	}
	w, npass := len(p.cols), len(p.sel)
	out := p.outBuf[:0]
	for _, ri := range sel {
		row := p.cb.Rows[ri]
		orow := p.arena.alloc(w)
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
	b.Rows, b.Sel = out, nil
	return nil
}

func (p *projectIter) Close() error { return p.in.it.Close() }

// valuesIter emits constant rows.
type valuesIter struct {
	ctx *Context
	v   *algebra.Values
	pos int
}

func (v *valuesIter) Open() error {
	v.pos = 0
	return nil
}

func (v *valuesIter) Next() (types.Row, bool, error) {
	if v.pos >= len(v.v.Rows) {
		return nil, false, nil
	}
	src := v.v.Rows[v.pos]
	v.pos++
	out := make(types.Row, len(src))
	for i, e := range src {
		d, err := v.ctx.ev.Eval(e, eval.MapEnv(nil))
		if err != nil {
			return nil, false, err
		}
		out[i] = d
	}
	return out, true, nil
}

func (v *valuesIter) Close() error { return nil }

// rowNumberIter appends a unique integer column.
type rowNumberIter struct {
	in *node
	n  int64
}

func (r *rowNumberIter) Open() error {
	r.n = 0
	return r.in.it.Open()
}

func (r *rowNumberIter) Next() (types.Row, bool, error) {
	row, ok, err := r.in.it.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	r.n++
	out := make(types.Row, 0, len(row)+1)
	out = append(out, row...)
	out = append(out, types.NewInt(r.n))
	return out, true, nil
}

func (r *rowNumberIter) Close() error { return r.in.it.Close() }

// max1RowIter enforces SQL scalar-subquery cardinality (§2.4): more
// than one input row is a run-time error.
type max1RowIter struct {
	in   *node
	done bool
}

func (m *max1RowIter) Open() error {
	m.done = false
	return m.in.it.Open()
}

func (m *max1RowIter) Next() (types.Row, bool, error) {
	if m.done {
		return nil, false, nil
	}
	row, ok, err := m.in.it.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	if _, extra, err := m.in.it.Next(); err != nil {
		return nil, false, err
	} else if extra {
		return nil, false, fmt.Errorf("exec: scalar subquery returned more than one row")
	}
	m.done = true
	return row, true, nil
}

func (m *max1RowIter) Close() error { return m.in.it.Close() }

// topIter limits output. st is the operator's stats slot (parity with
// sortIter — the slot EXPLAIN ANALYZE renders for the Top span).
type topIter struct {
	in   *node
	n    int64
	seen int64
	st   *OpStats

	cb Batch
}

func (t *topIter) Open() error {
	t.seen = 0
	return t.in.it.Open()
}

func (t *topIter) Next() (types.Row, bool, error) {
	if t.seen >= t.n {
		return nil, false, nil
	}
	row, ok, err := t.in.it.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	t.seen++
	return row, true, nil
}

// NextBatch forwards full input batches only while an entire batch
// fits under the limit, then switches to row-at-a-time pulls for the
// final stretch — the input never produces a row the limit would
// discard, so traced per-operator counts match row execution exactly.
func (t *topIter) NextBatch(b *Batch) error {
	remain := t.n - t.seen
	if remain <= 0 {
		b.setEmpty()
		return nil
	}
	if remain >= int64(BatchSize) {
		if err := nextBatch(t.in.it, &t.cb); err != nil {
			return err
		}
		live := t.cb.Len()
		if live == 0 {
			b.setEmpty()
			return nil
		}
		t.seen += int64(live)
		b.Rows, b.Sel = t.cb.Rows, t.cb.Sel
		return nil
	}
	if b.buf == nil {
		b.buf = make([]types.Row, 0, BatchSize)
	}
	buf := b.buf[:0]
	for int64(len(buf)) < remain {
		row, ok, err := t.in.it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		buf = append(buf, row)
	}
	t.seen += int64(len(buf))
	b.buf = buf
	b.Rows, b.Sel = buf, nil
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

	charged int64
	pending int64
}

// sortChargeChunk batches sort-buffer memory grants to amortize the
// shared atomic.
const sortChargeChunk = 32 << 10

func (s *sortIter) chargeRow(row types.Row) error {
	s.pending += rowBytes(row)
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
	for {
		row, ok, err := s.in.it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if governed {
			if err := s.chargeRow(row); err != nil {
				return err
			}
		}
		s.rows = append(s.rows, row)
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

func (s *sortIter) Next() (types.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, true, nil
}

// NextBatch serves windows of the sorted buffer directly.
func (s *sortIter) NextBatch(b *Batch) error {
	if s.pos >= len(s.rows) {
		b.setEmpty()
		return nil
	}
	end := s.pos + BatchSize
	if end > len(s.rows) {
		end = len(s.rows)
	}
	b.Rows, b.Sel = s.rows[s.pos:end], nil
	s.pos = end
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

// unionIter concatenates two inputs with positional column mapping.
type unionIter struct {
	l, r       *node
	lsel, rsel []int
	onRight    bool
}

func (u *unionIter) Open() error {
	u.onRight = false
	if err := u.l.it.Open(); err != nil {
		return err
	}
	return u.r.it.Open()
}

func (u *unionIter) Next() (types.Row, bool, error) {
	if !u.onRight {
		row, ok, err := u.l.it.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return mapRow(row, u.lsel), true, nil
		}
		u.onRight = true
	}
	row, ok, err := u.r.it.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return mapRow(row, u.rsel), true, nil
}

// Close closes both sides even when the first errors, so a failing
// (or fault-injected) close cannot leak the other input's resources.
func (u *unionIter) Close() error {
	err := u.l.it.Close()
	if rerr := u.r.it.Close(); err == nil {
		err = rerr
	}
	return err
}

func mapRow(row types.Row, sel []int) types.Row {
	out := make(types.Row, len(sel))
	for i, o := range sel {
		out[i] = row[o]
	}
	return out
}

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
	all := make([]int, len(d.rsel))
	for i := range all {
		all[i] = i
	}
	counts := map[uint64][]struct {
		row types.Row
		n   int
	}{}
	for {
		row, ok, err := d.r.it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		m := mapRow(row, d.rsel)
		h := types.HashRow(m, all)
		bucket := counts[h]
		found := false
		for i := range bucket {
			if types.EqualRows(bucket[i].row, all, m, all) {
				bucket[i].n++
				found = true
				break
			}
		}
		if !found {
			bucket = append(bucket, struct {
				row types.Row
				n   int
			}{m, 1})
		}
		counts[h] = bucket
	}
	d.out = d.out[:0]
	for {
		row, ok, err := d.l.it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		m := mapRow(row, d.lsel)
		h := types.HashRow(m, all)
		bucket := counts[h]
		consumed := false
		for i := range bucket {
			if bucket[i].n > 0 && types.EqualRows(bucket[i].row, all, m, all) {
				bucket[i].n--
				counts[h] = bucket
				consumed = true
				break
			}
		}
		if !consumed {
			d.out = append(d.out, m)
		}
	}
	d.pos = 0
	return nil
}

func (d *differenceIter) Next() (types.Row, bool, error) {
	if d.pos >= len(d.out) {
		return nil, false, nil
	}
	row := d.out[d.pos]
	d.pos++
	return row, true, nil
}

// Close closes both sides even when the first errors (see unionIter).
func (d *differenceIter) Close() error {
	err := d.l.it.Close()
	if rerr := d.r.it.Close(); err == nil {
		err = rerr
	}
	return err
}

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
	segOrds []int

	segments [][]types.Row
	segPos   int
	innerOn  bool
}

func (s *segmentApplyIter) Open() error {
	if err := s.in.it.Open(); err != nil {
		return err
	}
	type seg struct {
		rows []types.Row
	}
	buckets := map[uint64][]*seg{}
	var order []*seg
	for {
		row, ok, err := s.in.it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		m := mapRow(row, s.inSel)
		h := types.HashRow(m, s.segOrds)
		var target *seg
		for _, sg := range buckets[h] {
			if types.EqualRows(sg.rows[0], s.segOrds, m, s.segOrds) {
				target = sg
				break
			}
		}
		if target == nil {
			target = &seg{}
			buckets[h] = append(buckets[h], target)
			order = append(order, target)
		}
		target.rows = append(target.rows, m)
	}
	s.segments = s.segments[:0]
	for _, sg := range order {
		s.segments = append(s.segments, sg.rows)
	}
	s.segPos = 0
	s.innerOn = false
	return nil
}

func (s *segmentApplyIter) Next() (types.Row, bool, error) {
	for {
		if !s.innerOn {
			if s.segPos >= len(s.segments) {
				return nil, false, nil
			}
			s.ctx.segments[s.sa] = &segmentBinding{cols: s.sa.InputCols, rows: s.segments[s.segPos]}
			s.segPos++
			if err := s.inner.it.Open(); err != nil {
				return nil, false, err
			}
			s.innerOn = true
		}
		row, ok, err := s.inner.it.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
		if err := s.inner.it.Close(); err != nil {
			return nil, false, err
		}
		s.innerOn = false
	}
}

func (s *segmentApplyIter) Close() error {
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

func (s *segmentRefIter) Next() (types.Row, bool, error) {
	b := s.ctx.segments[s.owner]
	if b == nil {
		return nil, false, fmt.Errorf("exec: segment not bound")
	}
	if s.pos >= len(b.rows) {
		return nil, false, nil
	}
	row := b.rows[s.pos]
	s.pos++
	return row, true, nil
}

func (s *segmentRefIter) Close() error { return nil }
