// Command orthoq-bench regenerates the paper's evaluation on generated
// TPC-H data (EXPERIMENTS.md): Figure 1's strategy lattice for Q1,
// Figure 8's results table, Figure 9's Q2/Q17 series and the ablations.
// The paper's DBMS vendors become orthoq.Config values with primitives
// switched off (§5), compiled by DB.Prepare and run by Stmt.Run. Every
// answer must equal full optimization's before it is timed.
//
//	orthoq-bench -exp all -sf 0.01 -reps 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"orthoq"
	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/sql/parser"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

func main() {
	exp := flag.String("exp", "all", "experiment: figure1|figure8|figure9|ablation|all")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for figure1/figure8/ablation")
	sfList := flag.String("sfs", "0.002,0.005,0.01,0.02", "comma-separated scale factors for figure9")
	seed := flag.Int64("seed", 1, "data generator seed")
	reps := flag.Int("reps", 3, "timed runs per measurement (median reported)")
	jsonOut := flag.Bool("json", false, "emit one JSON line per measurement instead of tables")
	flag.Parse()

	r := &runner{w: os.Stdout, json: *jsonOut, reps: max(1, *reps), seed: *seed}
	experiments := map[string]func() error{
		"figure1":  func() error { return r.figure1(*sf) },
		"figure8":  func() error { return r.figure8(*sf) },
		"figure9":  func() error { return r.figure9(*sfList) },
		"ablation": func() error { return r.ablations(*sf) },
	}
	names := []string{*exp}
	if *exp == "all" {
		names = []string{"figure1", "figure8", "figure9", "ablation"}
	}
	for _, name := range names {
		run, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want figure1|figure8|figure9|ablation|all)\n", name)
			os.Exit(2)
		}
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// runner holds the output options and the database being measured.
type runner struct {
	w    io.Writer
	json bool
	reps int
	seed int64
	db   *orthoq.DB
	st   *storage.Store
	sf   float64
}

// open generates the TPC-H database at sf and makes it the current one.
func (r *runner) open(sf float64) error {
	st, err := tpch.Generate(sf, r.seed)
	if err != nil {
		return err
	}
	r.db, r.st, r.sf = orthoq.Open(st), st, sf
	return nil
}

// system is one way to run a query: a Config the engine compiles it
// under or, for Figure 1's forced shapes only, rewrites applied by hand
// to the tree normalized under opts (no Config can force a rewrite).
type system struct {
	name     string
	cfg      orthoq.Config
	opts     core.Options
	rewrites []rewrite
}

// rewrite transforms a normalized tree, or reports that it does not apply.
type rewrite func(*algebra.Metadata, algebra.Rel) (algebra.Rel, bool)

var full = system{name: "full-optimization", cfg: orthoq.DefaultConfig()}

// without returns base with what set switches off, under a new name.
func without(base system, name string, set func(*orthoq.Config)) system {
	base.name = name
	set(&base.cfg)
	return base
}

// systems is the Figure 8 ladder, weakest to strongest — correlated,
// flattening (§2), GroupBy reordering (§3.1-3.3), SegmentApply (§3.4),
// the full set with its correlated seed (§4) — then two one-offs.
var systems = []system{
	without(full, "correlated-only", func(c *orthoq.Config) { c.Decorrelate, c.SegmentApply, c.CorrelatedReintro = false, false, false }),
	without(full, "flatten-basic", func(c *orthoq.Config) {
		c.GroupByReorder, c.LocalAgg, c.SegmentApply, c.CorrelatedReintro = false, false, false, false
	}),
	without(full, "flatten+gb-reorder", func(c *orthoq.Config) { c.SegmentApply, c.CorrelatedReintro = false, false }),
	without(full, "flatten+segment", func(c *orthoq.Config) { c.CorrelatedReintro = false }),
	full,
	without(full, "no-oj-simplify", func(c *orthoq.Config) { c.SimplifyOuterJoins = false }),
	without(full, "normalize-only", func(c *orthoq.Config) { c.CostBased = false }),
}

// compile readies sql to run under sys.
func (r *runner) compile(sql string, sys system) (func() (*orthoq.Rows, error), error) {
	if sys.rewrites == nil {
		stmt, err := r.db.Prepare(sql, sys.cfg)
		if err != nil {
			return nil, err
		}
		return stmt.Run, nil
	}
	q, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	md := algebra.NewMetadata()
	res, err := algebrize.Build(r.st.Catalog, md, q)
	if err != nil {
		return nil, err
	}
	rel, err := core.Normalize(md, res.Rel, sys.opts)
	if err != nil {
		return nil, err
	}
	for _, rw := range sys.rewrites {
		var ok bool
		if rel, ok = rw(md, rel); !ok {
			return nil, fmt.Errorf("rewrite not applicable")
		}
	}
	return func() (*orthoq.Rows, error) {
		out, err := exec.Run(exec.NewContext(r.st, md), rel, res.OutCols)
		if err != nil {
			return nil, err
		}
		return &orthoq.Rows{Data: out.Rows}, nil
	}, nil
}

// measurement is one timed (query, system) pair: a JSON line under -json.
type measurement struct {
	Exp    string  `json:"exp"`
	SF     float64 `json:"sf"`
	Query  string  `json:"query"`
	System string  `json:"system"`
	Rows   int     `json:"rows"`
	Median int64   `json:"median_ns"`
}

// measure times sql under each system, each answer checked first
// against full optimization's.
func (r *runner) measure(exp, query, sql string, systems ...system) ([]measurement, error) {
	var want []orthoq.Row
	ms := make([]measurement, len(systems))
	for i, sys := range append([]system{full}, systems...) {
		rows, median, err := r.timed(sql, sys, want)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", query, sys.name, err)
		}
		if i == 0 {
			want = append([]orthoq.Row{}, rows...) // non-nil, even when empty
			continue
		}
		ms[i-1] = measurement{exp, r.sf, query, sys.name, len(rows), int64(median)}
		if r.json {
			if err := json.NewEncoder(r.w).Encode(ms[i-1]); err != nil {
				return nil, err
			}
		}
	}
	return ms, nil
}

// timed runs sql under sys once and returns the answer; given want, it
// first checks the answer against it, then times reps more runs.
func (r *runner) timed(sql string, sys system, want []orthoq.Row) ([]orthoq.Row, time.Duration, error) {
	run, err := r.compile(sql, sys)
	if err != nil {
		return nil, 0, err
	}
	got, err := run()
	if err != nil {
		return nil, 0, err
	} else if want == nil {
		return got.Data, 0, nil
	}
	if !sameBag(want, got.Data) {
		return nil, 0, fmt.Errorf("answer differs from full-optimization (%d rows against %d)", len(got.Data), len(want))
	}
	times := make([]time.Duration, r.reps)
	for i := range times {
		start := time.Now()
		if _, err := run(); err != nil {
			return nil, 0, err
		}
		times[i] = time.Since(start)
	}
	slices.Sort(times)
	return got.Data, times[len(times)/2], nil
}

// figure1SQL is the paper's running example Q1: customers who have
// ordered more than threshold in total.
func figure1SQL(threshold float64) string {
	return fmt.Sprintf("select c_custkey from customer where %.0f < "+
		"(select sum(o_totalprice) from orders where o_custkey = c_custkey)", threshold)
}

// lattice is Figure 1: the six strategies the paper's primitives connect
// (correlated execution is also the o_custkey index-lookup plan), then
// the cost-based pick.
var lattice = []system{
	{name: "correlated", cfg: orthoq.Config{}},                                          // Figure 2
	{name: "outerjoin+agg", cfg: orthoq.Config{Decorrelate: true}},                      // Dayal
	{name: "join+agg", cfg: orthoq.Config{Decorrelate: true, SimplifyOuterJoins: true}}, // Figure 5
	{name: "agg+join", rewrites: []rewrite{firstGroupBy(core.TryPushGroupByBelowJoin)}}, // Kim, §3.1
	{name: "agg+outerjoin", opts: core.Options{KeepOuterJoins: true},
		rewrites: []rewrite{firstGroupBy(core.TryPushGroupByBelowJoin)}}, // §3.2
	{name: "localagg+join", rewrites: []rewrite{
		firstGroupBy(func(md *algebra.Metadata, _ algebra.ColsOf, gb *algebra.GroupBy) (algebra.Rel, bool) {
			return core.TrySplitGroupBy(md, gb)
		}),
		firstGroupBy(core.TryPushLocalGroupByBelowJoin)}}, // §3.3
	{name: "cost-based pick", cfg: full.cfg},
}

// firstGroupBy applies a GroupBy rewrite at the first GroupBy of a tree
// (pre-order) where it applies.
func firstGroupBy(try func(*algebra.Metadata, algebra.ColsOf, *algebra.GroupBy) (algebra.Rel, bool)) rewrite {
	var first rewrite
	first = func(md *algebra.Metadata, rel algebra.Rel) (algebra.Rel, bool) {
		if gb, ok := rel.(*algebra.GroupBy); ok {
			if out, ok := try(md, algebra.TreeCols{}, gb); ok {
				return out, true
			}
		}
		ins := rel.Inputs()
		for i, in := range ins {
			if out, ok := first(md, in); ok {
				kids := slices.Clone(ins)
				kids[i] = out
				return rel.WithInputs(kids), true
			}
		}
		return rel, false
	}
	return first
}

// table measures each {label, sql} query under each system and prints
// one row per system: its geometric mean, then its median per query.
func (r *runner) table(title, exp string, queries [][2]string, systems []system) error {
	rows := [][]string{{"system", "geomean"}}
	for _, sys := range systems {
		rows = append(rows, []string{sys.name, ""})
	}
	logSums := make([]float64, len(systems))
	for _, q := range queries {
		ms, err := r.measure(exp, q[0], q[1], systems...)
		if err != nil {
			return err
		}
		rows[0] = append(rows[0], q[0])
		for i, m := range ms {
			rows[i+1] = append(rows[i+1], fmtDur(m.Median))
			logSums[i] += math.Log(float64(m.Median))
		}
	}
	for i, sum := range logSums {
		rows[i+1][1] = fmtDur(int64(math.Exp(sum / float64(len(queries)))))
	}
	r.print(title, rows)
	return nil
}

// figure1 times the lattice at a selective and an unselective threshold.
func (r *runner) figure1(sf float64) error {
	if err := r.open(sf); err != nil {
		return err
	}
	return r.table(fmt.Sprintf("Figure 1 — strategy lattice for Q1 at SF %g", sf), "figure1",
		[][2]string{{"1000000 < sum", figure1SQL(1000000)}, {"1000 < sum", figure1SQL(1000)}}, lattice)
}

// figure8 is the published-results table, with the geometric mean as
// the QphH-like column.
func (r *runner) figure8(sf float64) error {
	if err := r.open(sf); err != nil {
		return err
	}
	var queries [][2]string
	for _, q := range []string{"Q1", "Q2", "Q4", "Q11", "Q15", "Q16", "Q17", "Q18", "Q20", "Q21", "Q22"} {
		queries = append(queries, [2]string{q, tpchSQL(q)})
	}
	return r.table(fmt.Sprintf("Figure 8 — benchmark results at SF %g (systems = optimizer configurations)", sf),
		"figure8", queries, systems)
}

// figure9 is Figure 9's Q2 and Q17 under the technique ladder, with
// scale factor for the paper's processor count (one table each).
func (r *runner) figure9(sfList string) error {
	for _, s := range strings.Split(sfList, ",") {
		sf, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err == nil {
			err = r.open(sf)
		}
		if err == nil {
			err = r.table(fmt.Sprintf("Figure 9 — TPC-H Q2 and Q17 at SF %g", sf), "figure9",
				[][2]string{{"Q2", tpchSQL("Q2")}, {"Q17", tpchSQL("Q17")}}, systems[:5])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// flat is the full set without correlated reintroduction, so that the
// correlated seed cannot mask the primitive an ablation switches off.
var flat = without(full, "flat", func(c *orthoq.Config) { c.CorrelatedReintro = false })

// ablations are the per-primitive experiments (E7): a query where the
// primitive has a plan to offer, run "with" it and "without" it — the
// same Config with one technique off. Eager aggregation is two fields:
// §3.1-3.2 and §3.3 each push an aggregate below the join.
var ablations = []struct {
	name, sql     string
	with, without system
}{
	{"decorrelation (Q20)", tpchSQL("Q20"), full, without(full, "correlated", func(c *orthoq.Config) { c.Decorrelate = false })},
	{"correlated execution (Q4)", tpchSQL("Q4"), full, without(full, "no-correlated", func(c *orthoq.Config) { c.CorrelatedReintro = false })},
	{"outerjoin simplification (Q17, flat path)", tpchSQL("Q17"), flat,
		without(flat, "flat-keep-oj", func(c *orthoq.Config) { c.SimplifyOuterJoins = false })},
	{"groupby reordering (eager agg)", figure1SQL(1000), flat,
		without(flat, "flat-no-gb-reorder", func(c *orthoq.Config) { c.GroupByReorder, c.LocalAgg = false, false })},
	{"local aggregates (non-key grouping)",
		"select c_name, sum(o_totalprice) as total from customer join orders on o_custkey = c_custkey group by c_name",
		flat, without(flat, "flat-no-localagg", func(c *orthoq.Config) { c.LocalAgg = false })},
	{"segmentapply (Q17, flat path)", tpchSQL("Q17"), flat, without(flat, "flat-no-segment", func(c *orthoq.Config) { c.SegmentApply = false })},
	{"join reordering (Q2)", tpchSQL("Q2"), full, without(full, "no-join-reorder", func(c *orthoq.Config) { c.JoinReorder = false })},
}

// ablations measures each design choice in isolation.
func (r *runner) ablations(sf float64) error {
	if err := r.open(sf); err != nil {
		return err
	}
	table := [][]string{{"primitive", "with", "without", "factor"}}
	for _, ab := range ablations {
		ms, err := r.measure("ablation", ab.name, ab.sql, ab.with, ab.without)
		if err != nil {
			return err
		}
		with, wo := ms[0].Median, ms[1].Median
		table = append(table, []string{ab.name, fmtDur(with), fmtDur(wo), fmt.Sprintf("%.1fx", float64(wo)/float64(with))})
	}
	r.print(fmt.Sprintf("Ablations — each primitive disabled in isolation, SF %g", sf), table)
	return nil
}

func tpchSQL(name string) string {
	sql, _ := orthoq.TPCHQuery(name)
	return sql
}

// print writes a text table, or nothing under -json.
func (r *runner) print(title string, table [][]string) {
	if r.json {
		return
	}
	fmt.Fprintf(r.w, "\n%s\n", title)
	tw := tabwriter.NewWriter(r.w, 0, 0, 2, ' ', 0)
	for _, row := range table {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

func fmtDur(ns int64) string { return time.Duration(ns).Round(time.Microsecond).String() }

// sameBag reports whether a and b hold the same rows in any order, with
// numerics within the relative 1e-6 of the root equivalence tests; rows
// are matched within buckets of equal non-numeric values.
func sameBag(a, b []orthoq.Row) bool {
	key := func(row orthoq.Row) string {
		parts := make([]string, len(row))
		for i, v := range row {
			if v.IsNull() || !v.Kind().Numeric() {
				parts[i] = v.String()
			}
		}
		return strings.Join(parts, "|")
	}
	buckets := map[string][]orthoq.Row{}
	for _, row := range b {
		buckets[key(row)] = append(buckets[key(row)], row)
	}
	for _, row := range a {
		k := key(row)
		i := slices.IndexFunc(buckets[k], func(o orthoq.Row) bool { return approxEqualRow(row, o) })
		if i < 0 {
			return false
		}
		buckets[k] = slices.Delete(buckets[k], i, i+1)
	}
	return len(a) == len(b)
}

func approxEqualRow(a, b orthoq.Row) bool {
	for i, x := range a {
		switch y := b[i]; {
		case x.IsNull() || y.IsNull():
			if x.IsNull() != y.IsNull() {
				return false
			}
		case x.Kind().Numeric() && y.Kind().Numeric():
			fx, _ := x.AsFloat()
			fy, _ := y.AsFloat()
			if math.Abs(fx-fy) > 1e-6*max(1, math.Abs(fx)) {
				return false
			}
		case x.String() != y.String():
			return false
		}
	}
	return true
}
