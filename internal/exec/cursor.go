package exec

import (
	"orthoq/internal/algebra"
	"orthoq/internal/obs"
	"orthoq/internal/sql/types"
)

// Cursor is a streaming execution handle: the root's batches read one
// row at a time instead of materialized, and Close may be called before
// exhaustion — it tears the iterator tree down (stopping and draining
// any parallel exchange, so no worker goroutine outlives the cursor)
// and removes spill files. Close is idempotent.
//
// A reader that stops early must not have made the plan work far ahead
// of it: the cursor asks the root for one row first and doubles its row
// cap per refill up to a full batch, so k rows read cost fewer than 2k
// produced (and charged to RowBudget) while a full drain settles at
// BatchSize after ten refills.
type Cursor struct {
	ctx    *Context
	rel    algebra.Rel
	rows   rowReader // over the plan's root
	fetch  int       // row cap of the next refill
	sel    []int
	cols   []algebra.ColID
	names  []string
	closed bool
	done   bool
}

// RunCursor compiles and opens the plan for streaming consumption.
// The caller must Close the cursor, exhausted or not.
func RunCursor(ctx *Context, rel algebra.Rel, outCols []algebra.ColID) (cu *Cursor, err error) {
	defer func() {
		if r := recover(); r != nil {
			ctx.releaseSpills()
			cu, err = nil, recovered("run", ctx.Fingerprint, r)
		}
	}()
	n, sel, err := prepareRun(ctx, rel, outCols)
	if err != nil {
		ctx.releaseSpills()
		return nil, err
	}
	if outCols == nil {
		outCols = n.cols
	}
	if err := n.it.Open(); err != nil {
		n.it.Close()
		ctx.releaseSpills()
		return nil, err
	}
	cu = &Cursor{ctx: ctx, rel: rel, rows: rowReader{it: n.it}, fetch: 1, sel: sel, cols: outCols}
	for _, c := range outCols {
		cu.names = append(cu.names, ctx.Md.Alias(c))
	}
	return cu, nil
}

// Columns returns the result column names.
func (cu *Cursor) Columns() []string { return cu.names }

// Next returns the next result row, projected to the requested output
// columns; ok=false at end of stream. After an error or Close, Next
// keeps returning ok=false.
func (cu *Cursor) Next() (row types.Row, ok bool, err error) {
	if cu.closed || cu.done {
		return nil, false, nil
	}
	defer func() {
		if r := recover(); r != nil {
			row, ok = nil, false
			err = recovered("run", cu.ctx.Fingerprint, r)
		}
		if err != nil || !ok {
			cu.done = true
		}
	}()
	if err := cu.ctx.checkCtx(); err != nil {
		return nil, false, err
	}
	refill := cu.rows.spent()
	in, ok, err := cu.rows.next(cu.fetch)
	if refill {
		cu.fetch = min(2*cu.fetch, BatchSize)
	}
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(types.Row, len(cu.sel))
	for i, o := range cu.sel {
		out[i] = in[o]
	}
	return out, true, nil
}

// Spans builds the operator span tree of a traced cursor from what has
// executed so far (nil when tracing was not enabled).
func (cu *Cursor) Spans() *obs.Span { return cu.ctx.Spans(cu.rel) }

// PeakMem reports the high-water mark of accounted operator memory so
// far.
func (cu *Cursor) PeakMem() int64 { return cu.ctx.PeakMem() }

// Spills reports spill partition files written so far.
func (cu *Cursor) Spills() int64 { return cu.ctx.Spills() }

// Workers reports parallel workers started so far.
func (cu *Cursor) Workers() int64 { return cu.ctx.WorkersSpawned() }

// Morsels reports driver-scan morsels dispatched so far.
func (cu *Cursor) Morsels() int64 { return cu.ctx.MorselsDispatched() }

// Close releases the iterator tree and all run resources. Safe to
// call at any point, any number of times.
func (cu *Cursor) Close() (err error) {
	if cu.closed {
		return nil
	}
	cu.closed = true
	defer cu.ctx.releaseSpills()
	defer func() {
		if r := recover(); r != nil {
			err = recovered("run", cu.ctx.Fingerprint, r)
		}
	}()
	return cu.rows.it.Close()
}
