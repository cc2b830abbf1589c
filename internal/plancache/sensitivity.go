package plancache

import (
	"strconv"
	"strings"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
	"orthoq/internal/stats"
)

// Descriptor marks one plan-choice-sensitive parameter: a range
// comparison between a parameter slot and a base-table column, or an
// aggregate of one (a HAVING-style threshold). The fraction of the rows
// selected by such a predicate moves with the bound value, and the
// optimizer's seek-vs-scan (and join-vs-apply) crossover moves with it;
// plans are therefore cached per selectivity bucket of each sensitive
// parameter.
type Descriptor struct {
	ParamIdx int
	Table    string
	Ord      int
	// Inverted is set for > / >= comparisons, where the selected
	// fraction is 1 - P(col < v).
	Inverted bool
	// PerGroup is set for a comparison with a sum of the column: the
	// table's rows per group, by which the optimizer scales the bound
	// value before it consults the column's distribution.
	PerGroup float64
}

// Descriptors scans an optimized plan for range comparisons of the form
// "col op $n" (either orientation) where col is a statistics-backed
// base-table column or the sum, average, minimum or maximum of one,
// deduplicated. Equality comparisons are excluded: the cost model
// estimates them as 1/distinct regardless of the value, so the chosen
// plan cannot depend on which value is bound.
func Descriptors(md *algebra.Metadata, sc *stats.Collection, plan algebra.Rel) []Descriptor {
	if sc == nil {
		return nil
	}
	column := func(col algebra.ColID) (*stats.TableStats, *algebra.ColumnMeta) {
		meta := md.Column(col)
		if meta.Source == "" {
			return nil, nil
		}
		if ts := sc.Table(meta.Source); ts != nil && meta.Ord < len(ts.Columns) {
			return ts, meta
		}
		return nil, nil
	}
	// The aggregates the optimizer estimates thresholds on (opt's
	// aggStats), by output column: the aggregated column, and for a sum
	// the rows of its table per group.
	type aggregate struct {
		of       algebra.ColID
		perGroup float64
	}
	aggs := map[algebra.ColID]aggregate{}
	algebra.VisitRel(plan, func(r algebra.Rel) bool {
		gb, ok := r.(*algebra.GroupBy)
		if !ok {
			return true
		}
		groups := int64(1)
		gb.GroupCols.ForEach(func(c algebra.ColID) {
			if ts, meta := column(c); ts != nil {
				groups = max(groups, ts.Columns[meta.Ord].Distinct)
			}
		})
		for _, a := range gb.Aggs {
			ref, ok := a.Arg.(*algebra.ColRef)
			if !ok || a.Global || a.Distinct {
				continue
			}
			switch ts, _ := column(ref.Col); {
			case ts == nil:
			case a.Func == algebra.AggSum:
				aggs[a.Col] = aggregate{ref.Col, max(1, float64(ts.RowCount)/float64(groups))}
			case a.Func == algebra.AggAvg || a.Func == algebra.AggMin || a.Func == algebra.AggMax:
				aggs[a.Col] = aggregate{of: ref.Col}
			}
		}
		return true
	})
	var out []Descriptor
	seen := map[Descriptor]bool{}
	add := func(col algebra.ColID, idx int, op algebra.CmpOp) {
		switch op {
		case algebra.CmpLt, algebra.CmpLe, algebra.CmpGt, algebra.CmpGe:
		default:
			return
		}
		agg := aggs[col]
		if agg.of != 0 {
			col = agg.of
		}
		_, meta := column(col)
		if meta == nil {
			return
		}
		d := Descriptor{ParamIdx: idx, Table: meta.Source, Ord: meta.Ord,
			Inverted: op == algebra.CmpGt || op == algebra.CmpGe, PerGroup: agg.perGroup}
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	algebra.VisitRel(plan, func(r algebra.Rel) bool {
		for _, s := range algebra.RelScalars(r) {
			algebra.VisitScalar(s, func(n algebra.Scalar) {
				cmp, ok := n.(*algebra.Cmp)
				if !ok {
					return
				}
				if cr, ok := cmp.L.(*algebra.ColRef); ok {
					if pv, ok := cmp.R.(*algebra.Param); ok {
						add(cr.Col, pv.Idx, cmp.Op)
					}
				}
				if cr, ok := cmp.R.(*algebra.ColRef); ok {
					if pv, ok := cmp.L.(*algebra.Param); ok {
						add(cr.Col, pv.Idx, cmp.Op.Commute())
					}
				}
			})
		}
		return true
	})
	return out
}

// BucketKey maps the bound parameter values through the descriptors to
// a selectivity-bucket vector under current statistics. The estimated
// selected fraction of each sensitive predicate is quantized to an
// octile, so plans are shared across values that the cost model sees as
// similar and recompiled when a value crosses into a different regime.
func BucketKey(descs []Descriptor, sc *stats.Collection, params []types.Datum) string {
	if len(descs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, d := range descs {
		b.WriteString(strconv.Itoa(bucketOf(d, sc, params)))
		b.WriteByte(',')
	}
	return b.String()
}

func bucketOf(d Descriptor, sc *stats.Collection, params []types.Datum) int {
	if sc == nil || d.ParamIdx >= len(params) {
		return 0
	}
	ts := sc.Table(d.Table)
	if ts == nil || d.Ord >= len(ts.Columns) {
		return 0
	}
	v := params[d.ParamIdx]
	if f, ok := v.AsFloat(); ok && d.PerGroup > 0 {
		v = types.NewFloat(f / d.PerGroup)
	}
	f := ts.Columns[d.Ord].SelectivityLT(v, ts.RowCount)
	if d.Inverted {
		f = 1 - f
	}
	bucket := int(f * 8)
	if bucket < 0 {
		bucket = 0
	}
	if bucket > 7 {
		bucket = 7
	}
	return bucket
}
