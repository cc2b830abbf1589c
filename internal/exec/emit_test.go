package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
)

// pairLoop is the definition joinEmit is held to: a loop over one left
// row's candidates in order, each pair charged (when pairs is set) and
// the predicate's conjuncts interpreted on the concatenated pair in
// turn, a pair matching when every one is TRUE; semi and antisemi stop
// at their first match, and a full output pauses the row before its
// next pair.
type pairLoop struct {
	kind   algebra.JoinKind
	rWidth int
	preds  []algebra.Scalar
	ev     *eval.Evaluator
	env    eval.RowEnv // over the concatenated pair
	pairs  *Context

	out            []types.Row
	lrow           types.Row
	cands          []types.Row
	pos            int
	haveL, matched bool
}

func (p *pairLoop) run(limit int, next probeFn) ([]types.Row, error) {
	p.out = p.out[:0]
	for len(p.out) < limit {
		if !p.haveL {
			lrow, cands, ok, err := next(limit)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			p.lrow, p.cands, p.pos, p.haveL, p.matched = lrow, cands, 0, true, false
		}
		done, err := p.feed(limit)
		if err != nil {
			return nil, err
		}
		if !done {
			break
		}
		p.haveL = false
	}
	return p.out, nil
}

func (p *pairLoop) feed(limit int) (bool, error) {
	for ; p.pos < len(p.cands); p.pos++ {
		if len(p.out) >= limit {
			return false, nil
		}
		rrow := p.cands[p.pos]
		if p.pairs != nil {
			if err := p.pairs.charge(); err != nil {
				return false, err
			}
		}
		pair := append(append(types.Row(nil), p.lrow...), rrow...)
		p.env.Row = pair
		pass := true
		for _, c := range p.preds {
			v, err := p.ev.EvalBool(c, &p.env)
			if err != nil {
				return false, err
			}
			if pass = v == types.TriTrue; !pass {
				break
			}
		}
		if !pass {
			continue
		}
		p.matched = true
		switch p.kind {
		case algebra.SemiJoin:
			p.out = append(p.out, p.lrow)
			return true, nil
		case algebra.AntiSemiJoin:
			return true, nil
		}
		p.out = append(p.out, pair)
	}
	if !p.matched {
		if len(p.out) >= limit {
			return false, nil
		}
		switch p.kind {
		case algebra.AntiSemiJoin:
			p.out = append(p.out, p.lrow)
		case algebra.LeftOuterJoin:
			pad := append(types.Row(nil), p.lrow...)
			for i := 0; i < p.rWidth; i++ {
				pad = append(pad, types.NullUnknown)
			}
			p.out = append(p.out, pad)
		}
	}
	return true, nil
}

// emitCase is one drawn input: left rows, each with its candidates.
type emitCase struct {
	lrows []types.Row
	cands [][]types.Row
}

// probe serves c's left rows and candidates in order.
func (c *emitCase) probe() probeFn {
	i := 0
	return func(int) (types.Row, []types.Row, bool, error) {
		if i >= len(c.lrows) {
			return nil, nil, false, nil
		}
		i++
		return c.lrows[i-1], c.cands[i-1], true, nil
	}
}

func renderRows(rows []types.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for i, d := range r {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(d.String())
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestJoinEmitMatchesPairLoop drives joinEmit directly and holds it to
// pairLoop: inner, left outer, semi and antisemi; an Apply probe's
// candidates (an index's rows, not only the key's) under its inner
// filter, whose key conjunct and a conjunct that divides by zero run
// before the On; nested-loop pair charging under a row budget; 0–40 candidates per left row with NULL keys and values;
// residuals that divide by zero on some pairs; output limits 1, 3 and
// 1024. Batch by batch both must give the same rows in the same order
// and the same error or none, and at the end the same pairs charged.
func TestJoinEmitMatchesPairLoop(t *testing.T) {
	// Left columns 1 (key) and 2; right columns 3 (key) and 4.
	left := newNode(nil, []algebra.ColID{1, 2})
	right := newNode(nil, []algebra.ColID{3, 4})
	col := func(c algebra.ColID) algebra.Scalar { return &algebra.ColRef{Col: c} }
	num := func(v int64) algebra.Scalar { return &algebra.Const{Val: types.NewInt(v)} }
	cmp := func(op algebra.CmpOp, l, r algebra.Scalar) algebra.Scalar { return &algebra.Cmp{Op: op, L: l, R: r} }
	div := func(l, r algebra.Scalar) algebra.Scalar { return &algebra.Arith{Op: types.OpDiv, L: l, R: r} }
	preds := []algebra.Scalar{
		nil,
		cmp(algebra.CmpNe, col(4), col(2)), // Q21's l3.l_suppkey <> l1.l_suppkey
		&algebra.Or{Args: []algebra.Scalar{ // Q16's NOT IN
			&algebra.Not{Arg: cmp(algebra.CmpNe, col(4), col(2))},
			&algebra.IsNull{Arg: col(4)}, &algebra.IsNull{Arg: col(2)}}},
		cmp(algebra.CmpGt, div(col(2), col(4)), num(0)), // divides by zero where col 4 is 0
		&algebra.Or{Args: []algebra.Scalar{
			cmp(algebra.CmpGe, col(4), col(2)),
			cmp(algebra.CmpLt, div(num(6), &algebra.Arith{Op: types.OpSub, L: col(4), R: col(2)}), num(2))}},
	}
	// A probe's inner filter: the seek's key conjunct, and one that
	// divides by zero where column 4 is -1.
	probeFilter := []algebra.Scalar{
		cmp(algebra.CmpEq, col(3), col(1)),
		cmp(algebra.CmpGt, div(num(6), &algebra.Arith{Op: types.OpAdd, L: col(4), R: num(1)}), num(-100)),
	}
	kinds := []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin, algebra.SemiJoin, algebra.AntiSemiJoin}
	pairOrds := map[algebra.ColID]int{1: 0, 2: 1, 3: 2, 4: 3}

	r := rand.New(rand.NewSource(1))
	val := func(lo, n int) types.Datum {
		if r.Intn(6) == 0 {
			return types.Null(types.Int)
		}
		return types.NewInt(int64(lo + r.Intn(n)))
	}
	runs := 0
	for seed := 0; seed < 150; seed++ {
		c := &emitCase{}
		shared := r.Intn(2) == 0 // nested loops: every left row sees one right side
		var rrows []types.Row
		for i := r.Intn(41); i > 0; i-- {
			rrows = append(rrows, types.Row{val(0, 3), val(-1, 4)})
		}
		for i := r.Intn(9); i > 0; i-- {
			c.lrows = append(c.lrows, types.Row{val(0, 3), val(-2, 6)})
			cands := rrows
			if !shared {
				cands = nil
				for k := r.Intn(41); k > 0; k-- {
					cands = append(cands, types.Row{val(0, 3), val(-1, 4)})
				}
			}
			c.cands = append(c.cands, cands)
		}
		probed := r.Intn(2) == 0
		budget := int64(1 << 40)
		if r.Intn(2) == 0 {
			budget = int64(1 + r.Intn(150))
		}
		for _, kind := range kinds {
			for pi, on := range preds {
				for _, limit := range []int{1, 3, 1024} {
					runs++
					name := fmt.Sprintf("seed %d %s pred %d limit %d probed=%v shared=%v budget=%d",
						seed, kind, pi, limit, probed, shared, budget)
					ctx, refCtx := NewContext(nil, nil), NewContext(nil, nil)
					ctx.RowBudget, refCtx.RowBudget = budget, budget
					em := newJoinEmit(ctx, kind, on, left, right)
					ref := &pairLoop{kind: kind, rWidth: 2, ev: refCtx.ev,
						env: eval.RowEnv{Ords: pairOrds, Outer: refCtx.params}}
					if probed {
						em.preds = append(ctx.compiler(right.ords).CompileVecConjuncts(algebra.ConjoinAll(probeFilter...)), em.preds...)
						ref.preds = append(ref.preds, probeFilter...)
					}
					if on != nil {
						ref.preds = append(ref.preds, on)
					}
					if shared {
						em.pairs, ref.pairs = ctx, refCtx
					}
					next, refNext := c.probe(), c.probe()
					for batch := 0; ; batch++ {
						b := Batch{Limit: limit}
						err := em.run(&b, next)
						want, wantErr := ref.run(limit, refNext)
						if errText(err) != errText(wantErr) {
							t.Fatalf("%s batch %d: error %q, pair loop %q", name, batch, errText(err), errText(wantErr))
						}
						if err != nil {
							break
						}
						if got, w := renderRows(b.Rows), renderRows(want); got != w {
							t.Fatalf("%s batch %d:\n got  %s\n want %s", name, batch, got, w)
						}
						if len(want) == 0 {
							if got, w := ctx.shared.produced.Load(), refCtx.shared.produced.Load(); got != w {
								t.Fatalf("%s: %d pairs charged, pair loop %d", name, got, w)
							}
							break
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs", runs)
}
