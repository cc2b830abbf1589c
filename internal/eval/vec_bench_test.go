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
		cmp(algebra.CmpGe, colRef(1), cf(0.05)),
		cmp(algebra.CmpLe, colRef(1), cf(0.07)),
		cmp(algebra.CmpLt, colRef(2), constI(24)),
	}}
}

func benchArith() algebra.Scalar {
	return &algebra.Arith{Op: types.OpMul, L: colRef(3),
		R: &algebra.Arith{Op: types.OpSub, L: cf(1), R: colRef(1)}}
}

func benchOrds() map[algebra.ColID]int {
	return map[algebra.ColID]int{1: 0, 2: 1, 3: 2}
}

// benchBatch is one batch of the benchOrds layout with varied values.
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

// BenchmarkVecKernels times the vector kernels over one 1024-row batch:
// a comparison filter, the fused range filter, a Q6-shaped conjunction
// and Q1's discounted-price arithmetic. ns/row is the figure to
// compare; allocs/op must be zero once the scratch vectors exist.
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
		{"cmp", cmp(algebra.CmpLt, colRef(2), constI(24))},
		{"range", &algebra.And{Args: []algebra.Scalar{
			cmp(algebra.CmpGe, colRef(1), cf(0.05)), cmp(algebra.CmpLe, colRef(1), cf(0.07))}}},
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
}
