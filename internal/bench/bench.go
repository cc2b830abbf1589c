// Package bench is the experiment harness reproducing the paper's
// evaluation artifacts (see DESIGN.md §3 and EXPERIMENTS.md):
//
//   - E1/Figure 1: the strategy lattice for the running example Q1 —
//     each execution strategy the primitives generate, forced and
//     timed, plus the cost-based choice.
//   - E4/Figure 8: the published-results table, with optimizer
//     configurations standing in for the original DBMS vendors.
//   - E5-E6/Figure 9: Q2 and Q17 elapsed time across configurations
//     and scale factors.
//   - E7: per-primitive ablations.
//
// All experiments print paper-style rows and verify that every plan
// variant returns identical results before timing it.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/opt"
	"orthoq/internal/sql/parser"
	"orthoq/internal/sql/types"
	"orthoq/internal/stats"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

// DB bundles a generated store with collected statistics.
type DB struct {
	Store *storage.Store
	Stats *stats.Collection
	SF    float64
}

// OpenDB generates a TPC-H database for benchmarking.
func OpenDB(sf float64, seed int64) (*DB, error) {
	st, err := tpch.Generate(sf, seed)
	if err != nil {
		return nil, err
	}
	return &DB{Store: st, Stats: stats.Collect(st), SF: sf}, nil
}

// Plan is a compiled, executable strategy.
type Plan struct {
	Name string
	Md   *algebra.Metadata
	Rel  algebra.Rel
	Out  []algebra.ColID
}

// Execute runs the plan and reports row count and elapsed time.
func (p *Plan) Execute(db *DB) (rows int, elapsed time.Duration, err error) {
	ctx := exec.NewContext(db.Store, p.Md)
	ctx.Stats = db.Stats
	start := time.Now()
	res, err := exec.Run(ctx, p.Rel, p.Out)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", p.Name, err)
	}
	return len(res.Rows), time.Since(start), nil
}

// fingerprint renders the result set order-independently so strategy
// variants can be checked for agreement.
func (p *Plan) fingerprint(db *DB) (string, error) {
	ctx := exec.NewContext(db.Store, p.Md)
	ctx.Stats = db.Stats
	res, err := exec.Run(ctx, p.Rel, p.Out)
	if err != nil {
		return "", err
	}
	return fingerprintRows(res.Rows), nil
}

func fingerprintRows(rows []types.Row) string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, d := range row {
			parts[j] = d.String()
		}
		keys[i] = strings.Join(parts, "|")
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// compile parses/algebrizes/normalizes sql, then applies shape to the
// normalized tree.
func compile(db *DB, name, sql string, normOpts core.Options,
	shape func(*algebra.Metadata, algebra.Rel) (algebra.Rel, error)) (*Plan, error) {
	q, err := parser.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	md := algebra.NewMetadata()
	res, err := algebrize.Build(db.Store.Catalog, md, q)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rel, err := core.Normalize(md, res.Rel, normOpts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if shape != nil {
		rel, err = shape(md, rel)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return &Plan{Name: name, Md: md, Rel: rel, Out: res.OutCols}, nil
}

// optimize runs the cost-based optimizer under cfg, seeding the search
// with any extra equivalent formulations.
func optimize(db *DB, p *Plan, cfg opt.Config, seeds ...algebra.Rel) *Plan {
	o := &opt.Optimizer{Md: p.Md, Cat: db.Store.Catalog, Stats: db.Stats, Config: cfg}
	r := o.Optimize(p.Rel, seeds...)
	return &Plan{Name: p.Name, Md: p.Md, Rel: r.Plan, Out: p.Out}
}

// medianTime runs f reps times and returns the median duration.
func medianTime(reps int, f func() (time.Duration, error)) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		times = append(times, d)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// table is a tiny fixed-width text table writer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i, wd := range widths {
		seps[i] = strings.Repeat("-", wd)
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Compile exposes plan compilation for diagnostic tooling.
func Compile(db *DB, name, sql string, normOpts core.Options) (*Plan, error) {
	return compile(db, name, sql, normOpts, nil)
}

// OptimizePlan exposes cost-based optimization for diagnostic tooling.
func OptimizePlan(db *DB, p *Plan, cfg opt.Config) *Plan {
	return optimize(db, p, cfg)
}

// CostOf exposes the cost model for diagnostic tooling.
func CostOf(db *DB, md *algebra.Metadata, rel algebra.Rel) float64 {
	return (&opt.Optimizer{Md: md, Cat: db.Store.Catalog, Stats: db.Stats}).Cost(rel)
}

// ExplainCost exposes cost-annotated plan formatting for diagnostics.
func ExplainCost(db *DB, md *algebra.Metadata, rel algebra.Rel) string {
	return opt.FormatWithEstimates(md, db.Store.Catalog, db.Stats, rel)
}
