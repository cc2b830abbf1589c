package exec

// Batch-at-a-time execution. Hot operators implement a NextBatch fast
// path moving up to BatchSize rows per virtual call; cold operators
// (Apply, SegmentApply, Sort, Max1Row, ...) keep their row-at-a-time
// Next and are bridged by the nextBatch adapter, so a batched subtree
// can sit under a row-oriented parent and vice versa.
//
// Ownership contract: the producer SETS b.Rows (and b.Sel) on every
// NextBatch call; the slices remain valid only until the next
// Next/NextBatch call on that producer. Consumers may freely copy row
// headers (types.Row values) out of a batch — the underlying datum
// storage is never rewritten — but must not retain the Rows or Sel
// slices themselves. An empty batch (Len() == 0) signals end of
// stream.
//
// A driver chooses one pull mode per iterator instance for the
// lifetime of an Open: Run drains the root via NextBatch unless
// Context.DisableBatch is set; batched operators pull their children
// with nextBatch, row operators with Next. The two modes produce the
// same rows in the same order.

import (
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

	// buf backs the row→batch adapter for producers without a native
	// NextBatch; it is owned by this Batch and reused across calls.
	buf []types.Row
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
func (b *Batch) setEmpty() {
	b.Rows, b.Sel = nil, nil
}

// batchIterator is the optional fast path of the Volcano interface.
type batchIterator interface {
	// NextBatch fills b with the next window of rows; an empty batch
	// means end of stream. The filled slices obey the ownership
	// contract above.
	NextBatch(b *Batch) error
}

// nextBatch pulls one batch from it, via the native fast path when
// implemented and a row-at-a-time adapter otherwise.
func nextBatch(it iterator, b *Batch) error {
	if bi, ok := it.(batchIterator); ok {
		return bi.NextBatch(b)
	}
	if b.buf == nil {
		b.buf = make([]types.Row, 0, BatchSize)
	}
	buf := b.buf[:0]
	for len(buf) < BatchSize {
		row, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		buf = append(buf, row)
	}
	b.buf = buf
	b.Rows, b.Sel = buf, nil
	return nil
}

// initSel resets dst to the live indices of rows under sel (nil = all
// rows), reusing dst's storage.
func initSel(rows []types.Row, sel []int, dst []int) []int {
	dst = dst[:0]
	if sel != nil {
		return append(dst, sel...)
	}
	for i := range rows {
		dst = append(dst, i)
	}
	return dst
}

// filterPred is the predicate of a scan or Select in the form each
// pull mode evaluates: NextBatch narrows a selection with vector
// kernels, one top-level conjunct at a time — the vectorized form of
// SQL's left-to-right AND short-circuit: a row eliminated by an earlier
// conjunct never reaches a later one — and Next tests one row against
// the per-row closures of the same conjuncts. Both forms are compiled
// on first use; under DisableBatch neither is, and Next interprets.
type filterPred struct {
	ctx  *Context
	pred algebra.Scalar
	env  rowEnv

	comp    *eval.Compiler // nil: interpret
	rowsOK  bool
	rows    []eval.CompiledPred
	rowFr   eval.Frame
	vecOK   bool
	vec     []*eval.VecPred
	frame   eval.VecFrame
	selBuf  []int
	trivial bool
}

// open binds the predicate to its operator's layout; it is cheap and
// idempotent, so operators call it from every Open.
func (p *filterPred) open(ctx *Context, pred algebra.Scalar, ords map[algebra.ColID]int) {
	if p.ctx != nil {
		return
	}
	p.ctx, p.pred = ctx, pred
	p.env = rowEnv{ctx: ctx, ords: ords}
	p.comp = ctx.compiler(ords)
	p.trivial = pred == nil || algebra.IsTrueConst(pred)
}

// pass reports whether row satisfies the predicate.
func (p *filterPred) pass(row types.Row) (bool, error) {
	if p.trivial {
		return true, nil
	}
	if p.comp == nil {
		p.env.row = row
		v, err := p.ctx.ev.EvalBool(p.pred, &p.env)
		return v == types.TriTrue, err
	}
	if !p.rowsOK {
		p.rowsOK = true
		p.rows = p.comp.CompileConjuncts(p.pred)
	}
	p.rowFr.Row, p.rowFr.Outer = row, p.ctx.params
	for _, cj := range p.rows {
		v, err := cj(&p.rowFr)
		if err != nil || v != types.TriTrue {
			return false, err
		}
	}
	return true, nil
}

// narrow returns the rows of the window live under sel (nil = all)
// that satisfy the predicate, as a selection owned by p and valid
// until its next call. It must not be called under DisableBatch.
func (p *filterPred) narrow(rows []types.Row, sel []int) ([]int, error) {
	if !p.vecOK {
		p.vecOK = true
		p.vec = p.comp.CompileVecConjuncts(p.pred)
	}
	out := initSel(rows, sel, p.selBuf)
	p.selBuf = out
	p.frame.Reset(rows, p.ctx.params)
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

// rowArena carves output rows from chunks that are written once and
// never recycled, so consumers may retain the rows (the Batch ownership
// contract forbids reuse, not chunking) while allocations drop from one
// per row to one per chunk. Chunks double from one row, so an operator
// that emits one row (a point read, the inner side of an Apply) pays
// for one row, up to arenaChunkDatums — just under the allocator's
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
