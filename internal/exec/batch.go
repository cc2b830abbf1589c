package exec

// The pull protocol. Every operator is Open / NextBatch / Close and
// moves up to BatchSize rows per call; there is no row-at-a-time twin.
// Rows exist as a delivery format only where a result leaves the
// executor: Run copies batches into the materialized Result, and a
// Cursor is a rowReader (a Batch plus a position) over the root.
//
// Ownership contract: the producer SETS b.Rows (and b.Sel) on every
// NextBatch call; the slices remain valid only until the next
// NextBatch call on that producer. Consumers may freely copy row
// headers (types.Row values) out of a batch — the underlying datum
// storage is never rewritten — but must not retain or write the Rows or
// Sel slices themselves. An empty batch (Len() == 0) signals end of
// stream; a producer keeps answering with empty batches after it.
//
// Stored rows: a batch of a table's stored rows also says where they
// are stored (at): row ri is stored row off+ri of a scan's window, or
// stored row ords[ri] of an ordered walk or a seek, so kernels read the
// table's typed columns — as views, or gathered by ordinal — instead of
// gathering out of the rows. Scans set it (setStored), an operator
// forwarding its input's rows unchanged passes it on, and one that
// builds or reorders rows clears it (set, serve, setEmpty).
//
// Row cap: the consumer sets b.Limit before the call and the producer
// returns at most that many live rows — and does not read, charge or
// compute rows beyond what it needs to fill them. Streaming operators
// hand the cap to the input that drives them (a scan reads a window of
// Limit rows, a filter or project asks its child for Limit, a join
// probes Limit left rows), so a consumer that knows how many rows it
// will use — Top's remaining count, a Semi Apply's first row, Max1Row's
// two — pays for those rows and no others. Operators that must see
// their whole input (sort, hash build, aggregation) pull it uncapped
// and serve their result in windows of Limit. The per-operator guard
// turns a producer that overshoots its cap into an internal error.

import (
	"slices"

	"orthoq/internal/algebra"
	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
)

// BatchSize is the maximum number of rows per batch. It matches
// morselSize so one claimed morsel fills one batch.
const BatchSize = 1024

// Batch is a unit of batched data flow: a window of rows plus an
// optional selection vector. Sel == nil means every row is live;
// otherwise Sel holds ascending indices into Rows — filters shrink
// the selection instead of compacting rows.
type Batch struct {
	Rows []types.Row
	Sel  []int

	// Limit is the consumer's row cap for the next NextBatch call; 0 (or
	// anything above BatchSize) means a full batch.
	Limit int

	at eval.Stored // where Rows are stored, if they are
}

// Len returns the number of live rows.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.Rows)
}

// Row returns the i-th live row.
func (b *Batch) Row(i int) types.Row {
	if b.Sel != nil {
		return b.Rows[b.Sel[i]]
	}
	return b.Rows[i]
}

// setEmpty marks end of stream.
func (b *Batch) setEmpty() { b.set(nil, nil) }

// set hands the consumer rows the producer built or reordered.
func (b *Batch) set(rows []types.Row, sel []int) {
	b.Rows, b.Sel, b.at = rows, sel, eval.Stored{}
}

// setStored hands the consumer stored rows placed by at.
func (b *Batch) setStored(rows []types.Row, sel []int, at eval.Stored) {
	b.Rows, b.Sel, b.at = rows, sel, at
}

// limit is the effective row cap of the pending call.
func (b *Batch) limit() int {
	if b.Limit > 0 && b.Limit < BatchSize {
		return b.Limit
	}
	return BatchSize
}

// serve hands out the next window of a materialized result, advancing
// pos; past the end it leaves the batch empty.
func (b *Batch) serve(rows []types.Row, pos *int) {
	end := min(*pos+b.limit(), len(rows))
	b.set(rows[*pos:end], nil)
	*pos = end
}

// rowReader reads an iterator's batches one row at a time: the form in
// which join-shaped operators walk their driving input, and the whole
// of what a Cursor is.
type rowReader struct {
	it iterator
	// charge, when set, counts every pulled row toward RowBudget.
	charge *Context
	b      Batch
	pos    int
}

// reset forgets the buffered batch (the input was re-opened).
func (r *rowReader) reset() {
	r.b.setEmpty()
	r.pos = 0
}

// spent reports that the buffered batch is used up: the next call pulls.
func (r *rowReader) spent() bool { return r.pos >= r.b.Len() }

// next returns the next row, pulling a batch of at most limit rows when
// the buffered one is used up; ok=false at end of stream.
func (r *rowReader) next(limit int) (types.Row, bool, error) {
	if r.spent() {
		if ok, err := r.pull(limit); !ok {
			return nil, false, err
		}
	}
	row := r.b.Row(r.pos)
	r.pos++
	return row, true, nil
}

// pull buffers the next batch of at most limit rows; ok=false at end of
// stream. Row k of it is live row k of r.b.
func (r *rowReader) pull(limit int) (ok bool, err error) {
	r.b.Limit, r.pos = limit, 0
	if err := r.it.NextBatch(&r.b); err != nil {
		return false, err
	}
	n := r.b.Len()
	if n == 0 {
		return false, nil
	}
	if r.charge != nil {
		if err := r.charge.chargeN(n); err != nil {
			return false, err
		}
	}
	return true, nil
}

// drainRows pulls it to exhaustion through the caller's batch, handing
// every live row to fn.
func drainRows(it iterator, b *Batch, fn func(types.Row) error) error {
	return drainBatches(it, b, func(b *Batch) error {
		for i := range b.Len() {
			if err := fn(b.Row(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// drainBatches pulls it to exhaustion through b, handing fn every
// non-empty batch.
func drainBatches(it iterator, b *Batch, fn func(*Batch) error) error {
	b.Limit = 0
	for {
		if err := it.NextBatch(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// filterPred is the predicate of a scan or Select: it narrows a
// selection with vector kernels, one top-level conjunct at a time — the
// vectorized form of SQL's left-to-right AND short-circuit: a row
// eliminated by an earlier conjunct never reaches a later one. The
// kernels are compiled on first use.
type filterPred struct {
	ctx     *Context
	pred    algebra.Scalar
	comp    *eval.Compiler
	trivial bool

	vecOK  bool
	vec    []*eval.VecPred
	frame  eval.VecFrame
	selBuf []int
}

// newFilterPred binds a predicate to its operator's row layout.
func newFilterPred(ctx *Context, pred algebra.Scalar, ords map[algebra.ColID]int) filterPred {
	return filterPred{ctx: ctx, pred: pred, comp: ctx.compiler(ords),
		trivial: pred == nil || algebra.IsTrueConst(pred)}
}

// narrow returns the rows of in's window live under its selection that
// satisfy the predicate, as a selection owned by p and valid until its
// next call.
func (p *filterPred) narrow(in *Batch) ([]int, error) {
	if !p.vecOK {
		p.vecOK = true
		p.vec = p.comp.CompileVecConjuncts(p.pred)
	}
	out := p.selBuf[:0] // the live rows, which the conjuncts narrow in place
	if in.Sel != nil {
		out = append(out, in.Sel...)
	} else {
		out = slices.Grow(out, len(in.Rows))[:len(in.Rows)]
		for i := range out {
			out[i] = i
		}
	}
	p.selBuf = out
	p.frame.ResetStored(in.Rows, p.ctx.params, in.at)
	for _, cj := range p.vec {
		var err error
		if out, err = cj.Filter(&p.frame, out); err != nil {
			return nil, err
		}
		if len(out) == 0 {
			break
		}
	}
	return out, nil
}

// emit is the tail every scan shares: charge the window just read and
// hand b its rows that pass; at places cand in the table. ok=false with
// a nil error means none did, and the scan moves on to its next window.
func (p *filterPred) emit(b *Batch, cand []types.Row, at eval.Stored) (ok bool, err error) {
	if err := p.ctx.chargeN(len(cand)); err != nil {
		return false, err
	}
	b.setStored(cand, nil, at)
	if p.trivial {
		return true, nil
	}
	sel, err := p.narrow(b)
	if err != nil || len(sel) == 0 {
		return false, err
	}
	b.Sel = sel
	return true, nil
}

// rowArena carves output rows from chunks that are written once and
// never recycled, so consumers may retain the rows (the Batch ownership
// contract forbids reuse, not chunking) while allocations drop from one
// per row to one per chunk. Chunks double from one row, so an operator
// that emits one row (a point read, the inner side of an Apply) pays
// for one row, up to arenaChunkDatums (24 KiB) — under the allocator's
// 32 KiB small-object limit, past which every chunk would be a
// page-granular large object whose unused tail inflates the heap.
type rowArena struct {
	buf  []types.Datum
	rows int // rows of the last chunk
}

const arenaChunkDatums = 768

// alloc carves a zero-length row with capacity w.
func (a *rowArena) alloc(w int) types.Row {
	if len(a.buf) < w {
		a.rows = max(1, min(2*a.rows, arenaChunkDatums/max(w, 1)))
		a.buf = make([]types.Datum, a.rows*w)
	}
	out := a.buf[0:0:w]
	a.buf = a.buf[w:]
	return out
}

// concat carves the concatenation of l and r.
func (a *rowArena) concat(l, r types.Row) types.Row {
	out := a.alloc(len(l) + len(r))
	out = append(out, l...)
	return append(out, r...)
}

// padNulls carves l followed by n NULLs (the unmatched row of a left
// outer join).
func (a *rowArena) padNulls(l types.Row, n int) types.Row {
	out := append(a.alloc(len(l)+n), l...)
	for i := 0; i < n; i++ {
		out = append(out, types.NullUnknown)
	}
	return out
}

// mapRow carves the projection of row onto the ordinals sel.
func (a *rowArena) mapRow(row types.Row, sel []int) types.Row {
	out := a.alloc(len(sel))
	for _, o := range sel {
		out = append(out, row[o])
	}
	return out
}
