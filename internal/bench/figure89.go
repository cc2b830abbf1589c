package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/opt"
	"orthoq/internal/sql/parser"
	"orthoq/internal/tpch"
)

// SystemConfig is one row of the Figure-8 substitution: where the
// paper compares DBMS vendors, we compare configurations of this
// engine with individual primitives disabled (§5: "it is reordering,
// and GroupBy optimization techniques that do have an impact").
type SystemConfig struct {
	Name string
	Norm core.Options
	Opt  opt.Config
	// SkipOpt executes the normalized plan without cost-based search.
	SkipOpt bool
}

// SystemConfigs lists the benchmark "systems" as a technique ladder,
// weakest to strongest: pure correlated execution, then flattening
// (§2), then GroupBy reordering (§3.1-3.3), then SegmentApply (§3.4),
// then the full set (which additionally seeds the search with the
// correlated form, §4's correlated-execution reintroduction).
func SystemConfigs() []SystemConfig {
	return []SystemConfig{
		{Name: "correlated-only", Norm: core.Options{KeepCorrelated: true},
			Opt: opt.Config{DisableRules: opt.Disable(opt.FamilySegmentApply, opt.FamilyCorrelatedReintro)}},
		{Name: "flatten-basic",
			Opt: opt.Config{DisableRules: opt.Disable(opt.FamilyGroupByReorder, opt.FamilyLocalAgg,
				opt.FamilySegmentApply, opt.FamilyCorrelatedReintro)}},
		{Name: "flatten+gb-reorder",
			Opt: opt.Config{DisableRules: opt.Disable(opt.FamilySegmentApply, opt.FamilyCorrelatedReintro)}},
		{Name: "flatten+segment",
			Opt: opt.Config{DisableRules: opt.Disable(opt.FamilyCorrelatedReintro)}},
		{Name: "full-optimization", Opt: opt.Config{}},
		{Name: "no-oj-simplify", Norm: core.Options{KeepOuterJoins: true}},
		{Name: "normalize-only", SkipOpt: true},
	}
}

// runQueryUnder compiles and runs a query under a system config,
// returning rows and the median execution time. When correlated
// reintroduction is enabled, the correlated formulation seeds the
// optimizer alongside the flattened one.
func runQueryUnder(db *DB, sql string, sys SystemConfig, reps int) (int, time.Duration, error) {
	plan, err := PrepareSystem(db, sql, sys)
	if err != nil {
		return 0, 0, err
	}
	var rows int
	med, err := medianTime(reps, func() (time.Duration, error) {
		r, d, err := plan.Execute(db)
		rows = r
		return d, err
	})
	return rows, med, err
}

// RunFigure8 produces the published-results table analog: one row per
// system configuration with per-query elapsed times and a geometric
// mean (the QphH-like summary column).
func RunFigure8(w io.Writer, db *DB, reps int) error {
	queries := []string{"Q1", "Q2", "Q4", "Q11", "Q15", "Q16", "Q17", "Q18", "Q20", "Q21", "Q22"}
	fmt.Fprintf(w, "\nFigure 8 — benchmark results at SF %g (systems = optimizer configurations)\n", db.SF)
	header := append([]string{"system", "geomean"}, queries...)
	tbl := &table{header: header}

	baseline := map[string]string{}
	for _, sys := range SystemConfigs() {
		cells := []string{sys.Name, ""}
		prod, n := 1.0, 0
		for _, q := range queries {
			rows, med, err := runQueryUnder(db, tpch.Queries[q], sys, reps)
			if err != nil {
				cells = append(cells, "err")
				continue
			}
			if sys.Name == "full-optimization" {
				baseline[q] = fmt.Sprint(rows)
			} else if want, ok := baseline[q]; ok && want != fmt.Sprint(rows) {
				return fmt.Errorf("%s/%s row count %d != full-optimization %s", sys.Name, q, rows, want)
			}
			cells = append(cells, fmtDur(med))
			prod *= med.Seconds()
			n++
		}
		if n > 0 {
			cells[1] = fmt.Sprintf("%.1fms", math.Pow(prod, 1/float64(n))*1000)
		}
		tbl.add(cells...)
	}
	tbl.write(w)
	return nil
}

// RunFigure9 reproduces the shape of the paper's Figure 9: elapsed
// time for Q2 and Q17 as series over scale factor, one line per
// configuration. The paper's x axis was processor count across
// vendors; ours is data scale across configurations — the claim being
// reproduced is that the full technique set is fastest by a widening
// factor (see DESIGN.md substitutions).
func RunFigure9(w io.Writer, sfs []float64, seed int64, reps int) error {
	systems := SystemConfigs()[:5] // the technique ladder
	for _, qname := range []string{"Q2", "Q17"} {
		fmt.Fprintf(w, "\nFigure 9 — TPC-H %s elapsed time\n", qname)
		header := []string{"scale factor"}
		for _, s := range systems {
			header = append(header, s.Name)
		}
		tbl := &table{header: header}
		for _, sf := range sfs {
			db, err := OpenDB(sf, seed)
			if err != nil {
				return err
			}
			cells := []string{fmt.Sprintf("%g", sf)}
			for _, sys := range systems {
				_, med, err := runQueryUnder(db, tpch.Queries[qname], sys, reps)
				if err != nil {
					cells = append(cells, "err")
					continue
				}
				cells = append(cells, fmtDur(med))
			}
			tbl.add(cells...)
		}
		tbl.write(w)
	}
	return nil
}

// AblationSpec is one design-choice experiment: a query where exactly
// one primitive is switched off.
type AblationSpec struct {
	Name    string
	Query   string
	Full    SystemConfig
	Without SystemConfig
}

// Ablations enumerates the per-primitive experiments (E7). Each spec
// compares configurations differing in exactly one primitive, on a
// query where that primitive has a plan to offer; the flattened-path
// ablations disable correlated reintroduction on both sides so the
// correlated seed cannot mask the primitive under test.
func Ablations() []AblationSpec {
	full := SystemConfig{Name: "full", Opt: opt.Config{}}
	noCorr := opt.Config{DisableRules: opt.Disable(opt.FamilyCorrelatedReintro)}
	// Eager-aggregation showcase: the unselective Figure-1 query, where
	// aggregating orders before the join beats aggregating after.
	eagerSQL := `
		select c_custkey from customer
		where 1000 < (select sum(o_totalprice) from orders where o_custkey = c_custkey)`
	return []AblationSpec{
		{
			// Flattening matters when the outer is large: Q20's nested
			// subqueries re-execute per partsupp row without it.
			Name: "decorrelation (Q20)", Query: tpch.Queries["Q20"], Full: full,
			Without: SystemConfig{Name: "correlated",
				Norm: core.Options{KeepCorrelated: true},
				Opt:  opt.Config{DisableRules: opt.Disable(opt.FamilySegmentApply, opt.FamilyCorrelatedReintro)}},
		},
		{
			// Correlated execution matters when the outer is small and
			// indexes exist: Q4 without the correlated seed falls back
			// to hashing all of lineitem.
			Name: "correlated execution (Q4)", Query: tpch.Queries["Q4"], Full: full,
			Without: SystemConfig{Name: "no-correlated", Opt: noCorr},
		},
		{
			Name: "outerjoin simplification (Q17, flat path)", Query: tpch.Queries["Q17"],
			Full: SystemConfig{Name: "flat", Opt: noCorr},
			Without: SystemConfig{Name: "flat-keep-oj",
				Norm: core.Options{KeepOuterJoins: true},
				Opt:  opt.Config{DisableRules: opt.Disable(opt.FamilyCorrelatedReintro)}},
		},
		{
			Name: "groupby reordering (eager agg)", Query: eagerSQL,
			Full: SystemConfig{Name: "flat", Opt: noCorr},
			Without: SystemConfig{Name: "flat-no-gb-reorder",
				Opt: opt.Config{DisableRules: opt.Disable(opt.FamilyCorrelatedReintro,
					opt.FamilyGroupByReorder, opt.FamilyLocalAgg)}},
		},
		{
			// Grouping by a non-key column blocks the strict §3.1 push
			// (key(S) must be among the grouping columns), so only the
			// freely-extendable LocalGroupBy can aggregate early.
			Name: "local aggregates (non-key grouping)",
			Query: `
				select c_name, sum(o_totalprice) as total
				from customer join orders on o_custkey = c_custkey
				group by c_name`,
			Full: SystemConfig{Name: "flat", Opt: noCorr},
			Without: SystemConfig{Name: "flat-no-localagg",
				Opt: opt.Config{DisableRules: opt.Disable(opt.FamilyCorrelatedReintro, opt.FamilyLocalAgg)}},
		},
		{
			Name: "segmentapply (Q17, flat path)", Query: tpch.Queries["Q17"],
			Full: SystemConfig{Name: "flat", Opt: noCorr},
			Without: SystemConfig{Name: "flat-no-segment",
				Opt: opt.Config{DisableRules: opt.Disable(opt.FamilyCorrelatedReintro, opt.FamilySegmentApply)}},
		},
		{
			Name: "join reordering (Q2)", Query: tpch.Queries["Q2"], Full: full,
			Without: SystemConfig{Name: "no-join-reorder",
				Opt: opt.Config{DisableRules: opt.Disable(opt.FamilyJoinReorder)}},
		},
	}
}

// RunAblations measures each design choice in isolation.
func RunAblations(w io.Writer, db *DB, reps int) error {
	fmt.Fprintf(w, "\nAblations — each primitive disabled in isolation, SF %g\n", db.SF)
	tbl := &table{header: []string{"primitive", "with", "without", "factor"}}
	for _, ab := range Ablations() {
		_, with, err := runQueryUnder(db, ab.Query, ab.Full, reps)
		if err != nil {
			return fmt.Errorf("%s (full): %w", ab.Name, err)
		}
		_, without, err := runQueryUnder(db, ab.Query, ab.Without, reps)
		if err != nil {
			return fmt.Errorf("%s (ablated): %w", ab.Name, err)
		}
		factor := float64(without) / float64(with)
		tbl.add(ab.Name, fmtDur(with), fmtDur(without), fmt.Sprintf("%.1fx", factor))
	}
	tbl.write(w)
	return nil
}

// PrepareSystem compiles and (unless SkipOpt) optimizes a query under
// a system configuration, seeding the search with the correlated
// formulation when correlated reintroduction is enabled.
func PrepareSystem(db *DB, sql string, sys SystemConfig) (*Plan, error) {
	q, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	md := algebra.NewMetadata()
	res, err := algebrize.Build(db.Store.Catalog, md, q)
	if err != nil {
		return nil, err
	}
	rel, err := core.Normalize(md, res.Rel, sys.Norm)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Name: sys.Name, Md: md, Rel: rel, Out: res.OutCols}
	if !sys.SkipOpt {
		var seeds []algebra.Rel
		if !sys.Opt.DisableRules[opt.RuleJoinToApply] && !sys.Norm.KeepCorrelated {
			keep := sys.Norm
			keep.KeepCorrelated = true
			if corr, err := core.Normalize(md, res.Rel, keep); err == nil {
				seeds = append(seeds, corr)
			}
		}
		plan = optimize(db, plan, sys.Opt, seeds...)
	}
	return plan, nil
}

// RunOne exposes runQueryUnder for diagnostic tooling.
func RunOne(db *DB, sql string, sys SystemConfig, reps int) (int, time.Duration, error) {
	return runQueryUnder(db, sql, sys, reps)
}
