package eval

import (
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// benchPred is a Q6-shaped conjunction: three range filters over one
// row layout — the hot scan-filter shape batching targets.
func benchPred() algebra.Scalar {
	return &algebra.And{Args: []algebra.Scalar{
		cmp(algebra.CmpGe, col(1), cf(0.05)),
		cmp(algebra.CmpLe, col(1), cf(0.07)),
		cmp(algebra.CmpLt, col(2), ci(24)),
	}}
}

func benchArith() algebra.Scalar {
	return &algebra.Arith{Op: types.OpMul, L: col(3),
		R: &algebra.Arith{Op: types.OpSub, L: cf(1), R: col(1)}}
}

func benchRow() types.Row {
	return types.Row{types.NewFloat(0.06), types.NewInt(17), types.NewFloat(1000.5)}
}

func benchOrds() map[algebra.ColID]int {
	return map[algebra.ColID]int{1: 0, 2: 1, 3: 2}
}

func BenchmarkEvalCompiledPred(b *testing.B) {
	comp := &Compiler{Ev: &Evaluator{}, Ords: benchOrds()}
	p := comp.CompilePred(benchPred())
	fr := &Frame{Row: benchRow()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p(fr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalInterpretedPred(b *testing.B) {
	e := &Evaluator{}
	pred := benchPred()
	env := &layoutEnv{ords: benchOrds(), row: benchRow()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvalBool(pred, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCompiledArith(b *testing.B) {
	comp := &Compiler{Ev: &Evaluator{}, Ords: benchOrds()}
	f := comp.Compile(benchArith())
	fr := &Frame{Row: benchRow()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f(fr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalInterpretedArith(b *testing.B) {
	e := &Evaluator{}
	expr := benchArith()
	env := &layoutEnv{ords: benchOrds(), row: benchRow()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(expr, env); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatch is one batch of the benchRow layout with varied values.
func benchBatch(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewFloat(float64(i%11) / 100),
			types.NewInt(int64(i % 50)),
			types.NewFloat(1000.5 + float64(i)),
		}
	}
	return rows
}

// BenchmarkVecKernels times the vector kernels against the per-row
// closures of the same scalars over one 1024-row batch: a comparison
// filter, the fused range filter, and Q1's discounted-price arithmetic.
// ns/row is the figure to compare; allocs/op must be zero on both
// sides once the scratch vectors exist.
func BenchmarkVecKernels(b *testing.B) {
	const n = 1024
	rows := benchBatch(n)
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
	}
	preds := []struct {
		name string
		s    algebra.Scalar
	}{
		{"cmp", cmp(algebra.CmpLt, col(2), ci(24))},
		{"range", &algebra.And{Args: []algebra.Scalar{
			cmp(algebra.CmpGe, col(1), cf(0.05)), cmp(algebra.CmpLe, col(1), cf(0.07))}}},
		{"q6", benchPred()},
	}
	for _, p := range preds {
		b.Run(p.name+"/vector", func(b *testing.B) {
			conjs := (&Compiler{Ev: &Evaluator{}, Ords: benchOrds()}).CompileVecConjuncts(p.s)
			var f VecFrame
			sel := make([]int, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Reset(rows, nil)
				sel = sel[:0]
				for ri := range rows {
					sel = append(sel, ri)
				}
				live := sel
				for _, cj := range conjs {
					var err error
					if live, err = cj.Filter(&f, live); err != nil {
						b.Fatal(err)
					}
				}
			}
			perRow(b)
		})
		b.Run(p.name+"/closure", func(b *testing.B) {
			conjs := closureConjuncts(&Compiler{Ev: &Evaluator{}, Ords: benchOrds()}, p.s)
			sel := make([]int, 0, n)
			var fr Frame
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = sel[:0]
				for ri := range rows {
					sel = append(sel, ri)
				}
				live := sel
				for _, cj := range conjs {
					k := 0
					for _, ri := range live {
						fr.Row = rows[ri]
						v, err := cj(&fr)
						if err != nil {
							b.Fatal(err)
						}
						if v == types.TriTrue {
							live[k] = ri
							k++
						}
					}
					live = live[:k]
				}
			}
			perRow(b)
		})
	}
	b.Run("arith/vector", func(b *testing.B) {
		vx := (&Compiler{Ev: &Evaluator{}, Ords: benchOrds()}).CompileVec(benchArith())
		var f VecFrame
		sel := f.Identity(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Reset(rows, nil)
			if _, err := vx.Eval(&f, sel); err != nil {
				b.Fatal(err)
			}
		}
		perRow(b)
	})
	b.Run("arith/closure", func(b *testing.B) {
		fn := (&Compiler{Ev: &Evaluator{}, Ords: benchOrds()}).Compile(benchArith())
		var fr Frame
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ri := range rows {
				fr.Row = rows[ri]
				if _, err := fn(&fr); err != nil {
					b.Fatal(err)
				}
			}
		}
		perRow(b)
	})
}
