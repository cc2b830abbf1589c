package exec

import (
	"fmt"
	"strings"

	"orthoq/internal/algebra"
)

// compile lowers a logical operator tree to an iterator tree. Every
// operator is wrapped in a panic guard (and, when tracing is enabled,
// a statistics collector inside the guard) so that a panic anywhere in
// an operator's Open/NextBatch/Close surfaces as a typed ErrInternal
// carrying the operator name and plan fingerprint instead of
// unwinding the caller — and so the fault-injection harness has a
// deterministic hook at every operator boundary.
func compile(ctx *Context, rel algebra.Rel) (*node, error) {
	n, err := compileNode(ctx, rel)
	if err != nil {
		return n, err
	}
	it := n.it
	if ctx.trace != nil {
		st, ok := ctx.trace[rel]
		if !ok {
			st = &OpStats{}
			ctx.trace[rel] = st
		}
		it = &traceIter{in: it, st: st, clk: &ctx.clk}
	}
	return newNode(&guardIter{in: it, op: opName(rel), ctx: ctx}, n.cols), nil
}

// opName renders the operator name used in fault rules and contained
// panic reports ("Get", "Join", "GroupBy", ...).
func opName(rel algebra.Rel) string {
	name := fmt.Sprintf("%T", rel)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// guardIter wraps an operator with panic containment and the
// fault-injection hook. The nil-injector fast path is one branch per
// call; the recover is an open-coded defer.
type guardIter struct {
	in  iterator
	op  string
	ctx *Context
}

func (g *guardIter) rescue(errp *error) {
	if r := recover(); r != nil {
		*errp = recovered(g.op, g.ctx.Fingerprint, r)
	}
}

func (g *guardIter) Open() (err error) {
	defer g.rescue(&err)
	if f := g.ctx.Faults; f != nil {
		if err := f.Check(g.op, "open"); err != nil {
			return err
		}
	}
	return g.in.Open()
}

// NextBatch forwards the pull under the guard and holds the producer
// to the consumer's row cap: an overshoot would make Top return extra
// rows, so it is reported as the bug it is rather than truncated.
func (g *guardIter) NextBatch(b *Batch) (err error) {
	defer g.rescue(&err)
	if f := g.ctx.Faults; f != nil {
		if err := f.Check(g.op, "next"); err != nil {
			return err
		}
	}
	if err := g.in.NextBatch(b); err != nil {
		return err
	}
	if n := b.Len(); n > b.limit() {
		return recovered(g.op, g.ctx.Fingerprint,
			fmt.Sprintf("produced %d rows over a cap of %d", n, b.limit()))
	}
	return nil
}

// Close always closes the wrapped operator, even when a fault fires
// at the close boundary — injected close faults must not themselves
// leak resources.
func (g *guardIter) Close() (err error) {
	defer g.rescue(&err)
	err = g.in.Close()
	if f := g.ctx.Faults; f != nil {
		if ferr := f.Check(g.op, "close"); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

func compileNode(ctx *Context, rel algebra.Rel) (*node, error) {
	if ctx.pplan != nil && rel == ctx.pplan.at {
		// The parallel-eligible subtree compiles to an exchange
		// operator; worker clones recompile it serially (pplan is unset
		// on clones, so this fires exactly once).
		return compileExchange(ctx, rel)
	}
	switch t := rel.(type) {
	case *algebra.Get:
		return compileGet(ctx, t, nil)

	case *algebra.Select:
		// Select over Get: chance for an index seek when equality
		// conjuncts bind indexed columns with outer values.
		if g, ok := t.Input.(*algebra.Get); ok {
			return compileGet(ctx, g, t.Filter)
		}
		in, err := compile(ctx, t.Input)
		if err != nil {
			return nil, err
		}
		return newNode(&filterIter{in: in, filt: newFilterPred(ctx, t.Filter, in.ords)}, in.cols), nil

	case *algebra.Project:
		in, err := compile(ctx, t.Input)
		if err != nil {
			return nil, err
		}
		cols := append([]algebra.ColID(nil), t.Passthrough.Ordered()...)
		for _, it := range t.Items {
			cols = append(cols, it.Col)
		}
		return newNode(&projectIter{ctx: ctx, in: in, proj: t, cols: cols}, cols), nil

	case *algebra.Join:
		return compileJoin(ctx, t)

	case *algebra.Apply:
		return compileApply(ctx, t)

	case *algebra.GroupBy:
		in, err := compile(ctx, t.Input)
		if err != nil {
			return nil, err
		}
		cols := append([]algebra.ColID(nil), t.GroupCols.Ordered()...)
		for _, a := range t.Aggs {
			cols = append(cols, a.Col)
		}
		if AggAlg(t, algebra.DeliveredOrder(t.Input)) == AlgStream {
			return newNode(&streamAggIter{ctx: ctx, in: in, gb: t, cols: cols,
				st: ctx.traceStats(t)}, cols), nil
		}
		return newNode(&hashAggIter{ctx: ctx, in: in, gb: t, cols: cols,
			sizeHint: ctx.Estimates.sizeHint(t, aggPresizeMax), st: ctx.traceStats(t)}, cols), nil

	case *algebra.SegmentApply:
		return compileSegmentApply(ctx, t)

	case *algebra.SegmentRef:
		if len(ctx.segStack) == 0 {
			return nil, fmt.Errorf("exec: SegmentRef outside SegmentApply scope")
		}
		owner := ctx.segStack[len(ctx.segStack)-1]
		return newNode(&segmentRefIter{ctx: ctx, owner: owner}, t.Cols), nil

	case *algebra.Max1Row:
		in, err := compile(ctx, t.Input)
		if err != nil {
			return nil, err
		}
		return newNode(&max1RowIter{in: in}, in.cols), nil

	case *algebra.UnionAll:
		return compileUnion(ctx, t)

	case *algebra.Difference:
		return compileDifference(ctx, t)

	case *algebra.Values:
		return newNode(&valuesIter{ctx: ctx, v: t}, t.Cols), nil

	case *algebra.Sort:
		in, err := compile(ctx, t.Input)
		if err != nil {
			return nil, err
		}
		return newNode(&sortIter{ctx: ctx, in: in, by: t.By, st: ctx.traceStats(t)}, in.cols), nil

	case *algebra.Top:
		in, err := compile(ctx, t.Input)
		if err != nil {
			return nil, err
		}
		return newNode(&topIter{in: in, n: t.N, st: ctx.traceStats(t)}, in.cols), nil

	case *algebra.RowNumber:
		in, err := compile(ctx, t.Input)
		if err != nil {
			return nil, err
		}
		cols := append(append([]algebra.ColID(nil), in.cols...), t.Col)
		return newNode(&rowNumberIter{in: in}, cols), nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T", rel)
}

func compileUnion(ctx *Context, u *algebra.UnionAll) (*node, error) {
	l, err := compile(ctx, u.Left)
	if err != nil {
		return nil, err
	}
	r, err := compile(ctx, u.Right)
	if err != nil {
		return nil, err
	}
	lsel, err := selectOrds(l, u.LeftCols)
	if err != nil {
		return nil, err
	}
	rsel, err := selectOrds(r, u.RightCols)
	if err != nil {
		return nil, err
	}
	return newNode(&unionIter{l: l, r: r, lsel: lsel, rsel: rsel}, u.OutCols), nil
}

func compileDifference(ctx *Context, d *algebra.Difference) (*node, error) {
	l, err := compile(ctx, d.Left)
	if err != nil {
		return nil, err
	}
	r, err := compile(ctx, d.Right)
	if err != nil {
		return nil, err
	}
	lsel, err := selectOrds(l, d.LeftCols)
	if err != nil {
		return nil, err
	}
	rsel, err := selectOrds(r, d.RightCols)
	if err != nil {
		return nil, err
	}
	return newNode(&differenceIter{l: l, r: r, lsel: lsel, rsel: rsel}, d.OutCols), nil
}

func selectOrds(n *node, cols []algebra.ColID) ([]int, error) {
	sel := make([]int, len(cols))
	for i, c := range cols {
		o, ok := n.ords[c]
		if !ok {
			return nil, fmt.Errorf("exec: column %d not in input", c)
		}
		sel[i] = o
	}
	return sel, nil
}

func compileSegmentApply(ctx *Context, sa *algebra.SegmentApply) (*node, error) {
	in, err := compile(ctx, sa.Input)
	if err != nil {
		return nil, err
	}
	ctx.segStack = append(ctx.segStack, sa)
	inner, err := compile(ctx, sa.Inner)
	ctx.segStack = ctx.segStack[:len(ctx.segStack)-1]
	if err != nil {
		return nil, err
	}
	inSel, err := selectOrds(in, sa.InputCols)
	if err != nil {
		return nil, err
	}
	var segOrds []int
	for i, c := range sa.InputCols {
		if sa.SegmentCols.Contains(c) {
			segOrds = append(segOrds, i)
		}
	}
	return newNode(&segmentApplyIter{
		ctx: ctx, sa: sa, in: in, inner: inner, inSel: inSel, segOrds: segOrds,
	}, inner.cols), nil
}
