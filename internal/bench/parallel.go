// Parallel-execution experiment: the morsel-driven executor measured
// against serial execution over representative TPC-H workload shapes
// (scan+filter, scan+aggregate, join, join+aggregate). Results can be
// emitted as JSON lines so perf trajectories can be recorded across
// revisions.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/opt"
	"orthoq/internal/sql/types"
	"orthoq/internal/tpch"
)

// Result is one machine-readable measurement (JSONL row).
type Result struct {
	Experiment string  `json:"experiment"`
	Query      string  `json:"query"`
	Config     string  `json:"config"`
	Phase      string  `json:"phase,omitempty"` // cold | warm
	SF         float64 `json:"sf"`
	Workers    int     `json:"workers"`
	NsPerOp    int64   `json:"ns_per_op"`
	Rows       int     `json:"rows"`
	// PeakMemBytes and Spills are reported by governed experiments
	// (spill): the high-water mark of accounted operator memory and the
	// number of spill partition files written.
	PeakMemBytes int64 `json:"peak_mem_bytes,omitempty"`
	Spills       int64 `json:"spills,omitempty"`
	// Bindings and InnerExecs are reported by the apply experiment:
	// correlation-binding lookups (one per outer row) and actual
	// inner-side executions of the measured Apply.
	Bindings   int64 `json:"bindings,omitempty"`
	InnerExecs int64 `json:"inner_execs,omitempty"`
}

// ExecuteParallel runs the plan with the given worker count (0/1 =
// serial) and reports row count and elapsed time.
func (p *Plan) ExecuteParallel(db *DB, workers int) (rows int, elapsed time.Duration, err error) {
	ctx := exec.NewContext(db.Store, p.Md)
	ctx.Stats = db.Stats
	ctx.Parallelism = workers
	start := time.Now()
	res, err := exec.Run(ctx, p.Rel, p.Out)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", p.Name, err)
	}
	return len(res.Rows), time.Since(start), nil
}

// parallelWorkloads are the measured queries: each stresses one
// exchange shape.
func parallelWorkloads() []struct{ name, sql string } {
	return []struct{ name, sql string }{
		{"scan-filter", `select l_orderkey, l_extendedprice from lineitem
			where l_quantity > 30 and l_discount > 0.02`},
		{"Q1-scan-agg", tpch.Queries["Q1"]},
		{"join-probe", `select o_orderkey, c_name from orders, customer
			where o_custkey = c_custkey and o_totalprice > 1000`},
		{"join-agg", `select c_nationkey, count(*) as n, sum(o_totalprice) as s
			from orders, customer where o_custkey = c_custkey
			group by c_nationkey`},
	}
}

// RunParallel measures serial vs morsel-parallel execution of the
// workloads at several worker counts. With jsonOut set, each
// measurement is written as one JSON line instead of the text table.
// Every parallel variant's result bag is verified against serial
// before timing.
func RunParallel(w io.Writer, db *DB, reps int, jsonOut bool) error {
	workerCounts := []int{2, 4, 8}
	if !jsonOut {
		fmt.Fprintf(w, "== parallel execution: serial vs morsel-driven (SF %g, GOMAXPROCS %d) ==\n\n",
			db.SF, runtime.GOMAXPROCS(0))
	}
	tab := &table{header: []string{"query", "rows", "serial"}}
	for _, n := range workerCounts {
		tab.header = append(tab.header, fmt.Sprintf("par%d", n), "speedup")
	}
	enc := json.NewEncoder(w)
	for _, wl := range parallelWorkloads() {
		plan, err := compile(db, wl.name, wl.sql, core.Options{}, nil)
		if err != nil {
			return err
		}
		plan = optimize(db, plan, opt.Config{DisableRules: opt.Disable(opt.FamilyCorrelatedReintro)})
		serialRows, err := materialize(db, plan, 0)
		if err != nil {
			return err
		}
		var rows int
		serial, err := medianTime(reps, func() (time.Duration, error) {
			r, d, err := plan.ExecuteParallel(db, 0)
			rows = r
			return d, err
		})
		if err != nil {
			return err
		}
		if jsonOut {
			enc.Encode(Result{Experiment: "parallel", Query: wl.name, Config: "serial",
				SF: db.SF, Workers: 1, NsPerOp: serial.Nanoseconds(), Rows: rows})
		}
		cells := []string{wl.name, fmt.Sprint(rows), fmtDur(serial)}
		for _, n := range workerCounts {
			parRows, err := materialize(db, plan, n)
			if err != nil {
				return err
			}
			if !sameBagApprox(serialRows, parRows) {
				return fmt.Errorf("%s: parallel (%d workers) result differs from serial", wl.name, n)
			}
			par, err := medianTime(reps, func() (time.Duration, error) {
				_, d, err := plan.ExecuteParallel(db, n)
				return d, err
			})
			if err != nil {
				return err
			}
			if jsonOut {
				enc.Encode(Result{Experiment: "parallel", Query: wl.name,
					Config: fmt.Sprintf("parallel-%d", n), SF: db.SF, Workers: n,
					NsPerOp: par.Nanoseconds(), Rows: rows})
			}
			cells = append(cells, fmtDur(par),
				fmt.Sprintf("%.2fx", float64(serial)/float64(par)))
		}
		tab.add(cells...)
	}
	if !jsonOut {
		tab.write(w)
		fmt.Fprintln(w)
	}
	return nil
}

// materialize runs the plan with the given worker count (0 = serial)
// and returns all rows.
func materialize(db *DB, p *Plan, workers int) ([]types.Row, error) {
	ctx := exec.NewContext(db.Store, p.Md)
	ctx.Stats = db.Stats
	ctx.Parallelism = workers
	res, err := exec.Run(ctx, p.Rel, p.Out)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// sameBagApprox matches the two result bags order-insensitively with
// relative tolerance on numerics: parallel partial aggregation sums
// floats in morsel-assignment order, so sums differ from serial by
// ulp-scale rounding noise.
func sameBagApprox(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, ra := range a {
		found := false
		for j, rb := range b {
			if used[j] || !approxEqualRow(ra, rb) {
				continue
			}
			used[j] = true
			found = true
			break
		}
		if !found {
			return false
		}
	}
	return true
}

func approxEqualRow(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		da, db := a[i], b[i]
		if da.IsNull() || db.IsNull() {
			if da.IsNull() != db.IsNull() {
				return false
			}
			continue
		}
		if da.Kind().Numeric() && db.Kind().Numeric() {
			fa, _ := da.AsFloat()
			fb, _ := db.AsFloat()
			diff := fa - fb
			if diff < 0 {
				diff = -diff
			}
			scale := 1.0
			if fa > scale {
				scale = fa
			}
			if -fa > scale {
				scale = -fa
			}
			if diff > 1e-6*scale {
				return false
			}
			continue
		}
		if da.String() != db.String() {
			return false
		}
	}
	return true
}
