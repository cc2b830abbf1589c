package orthoq

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// traceOp is one operator line of a QueryAnalyze trace, as the report
// reads it back.
type traceOp struct {
	query, family, line string
	est, cost           float64
	act                 float64 // rows per open inside an Apply's or SegmentApply's inner side
	self                time.Duration
	opened              bool
}

// qError is the trace's q-error: max(est/act, act/est), both floored
// at one row.
func (o traceOp) qError() float64 {
	q := max(o.est, 1) / max(o.act, 1)
	return max(q, 1/q)
}

// traceOps parses a FormatTrace rendering. The rendering is pre-order
// with two spaces of indent per level, so an operator's place under an
// Apply's or SegmentApply's inner side (input 1) follows from the lines
// above it.
func traceOps(query, trace string) ([]traceOp, error) {
	type frame struct {
		family  string
		kids    int
		perOpen bool
	}
	var stack []frame
	var ops []traceOp
	for _, line := range strings.Split(strings.TrimRight(trace, "\n"), "\n") {
		text := strings.TrimLeft(line, " ")
		depth := (len(line) - len(text)) / 2
		if depth > len(stack) {
			return nil, fmt.Errorf("line deeper than its parent: %q", line)
		}
		stack = stack[:depth]
		op := traceOp{query: query}
		op.family, _, _ = strings.Cut(text, " ")
		perOpen := false
		if depth > 0 {
			parent := &stack[depth-1]
			perOpen = parent.perOpen || parent.kids == 1 && (parent.family == "Apply" || parent.family == "SegmentApply")
			parent.kids++
		}
		stack = append(stack, frame{family: op.family, perOpen: perOpen})
		i := strings.LastIndex(text, " (est=")
		if i < 0 {
			return nil, fmt.Errorf("line without est=: %q", line)
		}
		op.line = text[:i]
		if j := strings.Index(op.line, "  (rows="); j >= 0 {
			op.line = op.line[:j]
		}
		if _, err := fmt.Sscanf(text[i:], " (est=%g cost=%g", &op.est, &op.cost); err != nil {
			return nil, fmt.Errorf("%v: %q", err, line)
		}
		if rows, ok := field(text, "rows="); ok {
			opens, _ := field(text, "opens=")
			op.opened = opens > 0
			op.act = rows
			if perOpen && opens > 0 {
				op.act = rows / opens
			}
		}
		if j := strings.Index(text, " self="); j >= 0 {
			s := text[j+len(" self="):]
			if k := strings.IndexAny(s, " )"); k >= 0 {
				s = s[:k]
			}
			d, err := time.ParseDuration(s)
			if err != nil {
				return nil, fmt.Errorf("%v: %q", err, line)
			}
			op.self = d
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// field reads the number after name (rows=, opens=) in a trace line.
func field(text, name string) (float64, bool) {
	i := strings.Index(text, name)
	if i < 0 {
		return 0, false
	}
	s := text[i+len(name):]
	if j := strings.IndexAny(s, " )"); j >= 0 {
		s = s[:j]
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[max(0, int(math.Ceil(p*float64(len(xs))))-1)]
}

// TestQErrorReport is the estimate-versus-actual record of the cost
// model over the 15 warm-pass queries and the fuzz corpus at SF 0.005:
// every query runs under QueryAnalyze, and the report reads its trace
// back. It logs the median and p95 q-error over the operators that
// opened, the five worst operators (query, operator line, estimated and
// actual rows), and per operator family the median of estimated own
// cost (cost=) per millisecond of self time, over the operators that
// took any. It pins nothing: it is the number a change to the cost
// model or the estimates quotes (run it with -v).
func TestQErrorReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the corpus under QueryAnalyze")
	}
	db, err := OpenTPCH(benchSF, 1)
	if err != nil {
		t.Fatal(err)
	}
	sqls := warmPassQueries()
	names := append(TPCHQueryNames(), "Q1-correlated", "Q1-derived", "Q1-outerjoin")
	for _, seed := range []int64{20010521, 571, 41} { // TestFuzzCorpusSearchExhausts's corpus
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 120; i++ {
			sqls = append(sqls, randQuery(r))
			names = append(names, fmt.Sprintf("fuzz-%d-%d", seed, i))
		}
	}
	var ops []traceOp
	for i, sql := range sqls {
		rows, err := db.QueryAnalyze(sql, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v\nsql: %s", names[i], err, sql)
		}
		got, err := traceOps(names[i], rows.Trace)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		ops = append(ops, got...)
	}
	var opened []traceOp
	var qs []float64
	perMs := map[string][]float64{}
	for _, o := range ops {
		if !o.opened {
			continue
		}
		opened = append(opened, o)
		qs = append(qs, o.qError())
		if ms := float64(o.self) / float64(time.Millisecond); ms > 0 {
			perMs[o.family] = append(perMs[o.family], o.cost/ms)
		}
	}
	if len(opened) == 0 {
		t.Fatal("no operator opened")
	}
	slices.Sort(qs)
	t.Logf("%d queries, %d operators, %d opened: q-error median %.2f, p95 %.2f, max %.2f",
		len(sqls), len(ops), len(opened), quantile(qs, 0.5), quantile(qs, 0.95), qs[len(qs)-1])
	slices.SortStableFunc(opened, func(a, b traceOp) int { return cmp.Compare(b.qError(), a.qError()) })
	for _, o := range opened[:min(5, len(opened))] {
		t.Logf("q=%.1f est=%.3g act=%.3g %s: %s", o.qError(), o.est, o.act, o.query, o.line)
	}
	families := make([]string, 0, len(perMs))
	for f := range perMs {
		families = append(families, f)
	}
	slices.Sort(families)
	for _, f := range families {
		xs := perMs[f]
		slices.Sort(xs)
		t.Logf("%-14s estimated cost per ms of self time: median %.0f over %d operators", f, quantile(xs, 0.5), len(xs))
	}
}
