package opt

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/sql/parser"
	"orthoq/internal/stats"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

// updateGolden rewrites testdata/plans.golden from the optimizer under
// test. The case list (names and SQL) is read from the existing file,
// so regenerating pins new outputs for the same inputs.
var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden")

const goldenPath = "testdata/plans.golden"

// goldenCase is one pinned search: a query, optimized with or without
// the correlated seed the engine adds (in orthoq's compile).
type goldenCase struct {
	name   string
	seeded bool
	sql    string
	want   string // the record body below the sql line
}

func (c goldenCase) header() string {
	return fmt.Sprintf("=== %s seed=%t\nsql: %s\n", c.name, c.seeded, c.sql)
}

// readGolden parses the golden file into its cases.
func readGolden(t testing.TB) (preamble string, cases []goldenCase) {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(string(data), "=== ")
	preamble = parts[0]
	for _, p := range parts[1:] {
		head, rest, _ := strings.Cut(p, "\n")
		sqlLine, body, _ := strings.Cut(rest, "\n")
		name, seed, ok := strings.Cut(head, " seed=")
		sql, ok2 := strings.CutPrefix(sqlLine, "sql: ")
		seeded, err := strconv.ParseBool(seed)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: malformed record %q", goldenPath, head)
		}
		cases = append(cases, goldenCase{name: name, seeded: seeded, sql: sql, want: body})
	}
	return preamble, cases
}

var goldenStore = sync.OnceValues(func() (*storage.Store, error) {
	// The scale factor and data seed of perfbench's cold_analytic
	// workload, so the pinned searches are the ones the benchmark's
	// exact counters (opt.plans_explored, opt.plan_cost_sum) add up.
	return tpch.Generate(0.01, 1)
})

// goldenInputs prepares a case the way the engine does: the normalized
// plan, plus (when seeded) the correlation-keeping normal form as an
// extra seed.
func goldenInputs(t testing.TB, st *storage.Store, c goldenCase) (*algebra.Metadata, algebra.Rel, []algebra.Rel) {
	t.Helper()
	q, err := parser.Parse(c.sql)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	md := algebra.NewMetadata()
	built, err := algebrize.Build(st.Catalog, md, q)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	rel, err := core.Normalize(md, built.Rel, core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var seeds []algebra.Rel
	if c.seeded {
		seed, err := core.Normalize(md, built.Rel, core.Options{KeepCorrelated: true})
		if err != nil {
			t.Fatalf("%s: correlated seed: %v", c.name, err)
		}
		seeds = append(seeds, seed)
	}
	return md, rel, seeds
}

// renderResult is the pinned part of a search: cost to the last bit,
// the size of the memo, the rules on the winner's derivation and its
// plan text.
func renderResult(md *algebra.Metadata, r *Result) string {
	return fmt.Sprintf("cost: %s (%.3f)\nexplored: %d\nrules: %s\nplan:\n%s\n",
		strconv.FormatFloat(r.Cost, 'x', -1, 64), r.Cost, r.Explored,
		strings.Join(r.Rules, ","), algebra.FormatRel(md, r.Plan))
}

// TestSearchUnchanged pins the search itself: for the 12 TPC-H
// queries, the three Q1 spellings of perfbench and a slice of the fuzz
// corpus, each with and without the correlated seed, the final plan
// text, its cost (bit-exact), Result.Explored and Result.Rules must
// equal what is recorded. Changes that make exploring or costing
// cheaper must not change what is explored or which plan wins; a change
// that means to (a new rule, a cost formula) regenerates the file and
// says so.
func TestSearchUnchanged(t *testing.T) {
	st, err := goldenStore()
	if err != nil {
		t.Fatal(err)
	}
	sc := stats.Collect(st)
	preamble, cases := readGolden(t)
	var out bytes.Buffer
	out.WriteString(preamble)
	for _, c := range cases {
		md, rel, seeds := goldenInputs(t, st, c)
		o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
		got := renderResult(md, o.Optimize(rel, seeds...))
		out.WriteString(c.header())
		out.WriteString(got)
		if !*updateGolden && got != c.want {
			t.Errorf("%s seed=%t: search changed\n--- want\n%s--- got\n%s", c.name, c.seeded, c.want, got)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSearchEstimatesArePricing: the estimates a search returns are the
// plan's own. For every pinned search, Result.Cost is bit for bit what
// Optimizer.Cost prices Result.Plan at, and each node's entry in
// Result.Est is bit for bit the one the plan gets entered alone in a
// memo that is not explored (Optimizer.Estimate, which hands back the
// very tree it was given).
func TestSearchEstimatesArePricing(t *testing.T) {
	st, err := goldenStore()
	if err != nil {
		t.Fatal(err)
	}
	sc := stats.Collect(st)
	_, cases := readGolden(t)
	nodes := 0
	for _, c := range cases {
		md, rel, seeds := goldenInputs(t, st, c)
		o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
		r := o.Optimize(rel, seeds...)
		if cost := o.Estimate(r.Plan).Cost; math.Float64bits(r.Cost) != math.Float64bits(cost) {
			t.Errorf("%s seed=%t: Result.Cost %x, the plan priced %x", c.name, c.seeded, r.Cost, cost)
		}
		alone := o.Estimate(r.Plan)
		if alone.Plan != r.Plan {
			t.Fatalf("%s seed=%t: Estimate returned another tree", c.name, c.seeded)
		}
		if len(r.Est) != len(alone.Est) {
			t.Errorf("%s seed=%t: %d estimates from the search, %d from pricing", c.name, c.seeded, len(r.Est), len(alone.Est))
		}
		algebra.VisitRel(r.Plan, func(n algebra.Rel) bool {
			nodes++
			got, ok := r.Est[n]
			want := alone.Est[n]
			if !ok || math.Float64bits(got.Rows) != math.Float64bits(want.Rows) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Errorf("%s seed=%t: %s estimated %+v by the search, %+v priced alone", c.name, c.seeded,
					algebra.FormatNode(md, algebra.FromScratch{Of: n}, n), got, want)
			}
			return true
		})
	}
	t.Logf("%d searches, %d plan nodes compared", len(cases), nodes)
}

// BenchmarkOptimizeTPCH times one seeded Optimize call on the queries
// whose planning dominated perfbench's cold_analytic workload while the
// search had a step budget, and reports the work it did: the memo's
// groups and expressions, the estimates derived, the rule firings that
// produced a rewrite (Result.Generated), the tree nodes built
// (Result.Materialized) and the bindings queued (Result.Queued).
func BenchmarkOptimizeTPCH(b *testing.B) {
	st, err := goldenStore()
	if err != nil {
		b.Fatal(err)
	}
	sc := stats.Collect(st)
	for _, name := range []string{"Q2", "Q21", "Q20", "Q11", "Q18"} {
		c := goldenCase{name: name, seeded: true, sql: tpch.Queries[name]}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				md, rel, seeds := goldenInputs(b, st, c)
				o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
				b.StartTimer()
				benchResult = o.Optimize(rel, seeds...)
			}
			b.ReportMetric(float64(benchResult.Groups), "groups/op")
			b.ReportMetric(float64(benchResult.Explored), "exprs/op")
			b.ReportMetric(float64(benchResult.Costed), "costed/op")
			b.ReportMetric(float64(benchResult.Generated), "rewrites/op")
			b.ReportMetric(float64(benchResult.Materialized), "built/op")
			b.ReportMetric(float64(benchResult.Queued), "queued/op")
		})
	}
}

var benchResult *Result
