// Spill experiment: memory-bounded execution measured against
// unbounded execution over the memory-hungry workload shapes
// (aggregation and join builds). For each budget the harness verifies
// the result bag against the unbounded run before timing, and reports
// peak accounted memory and the number of spill partition files — the
// cost of degrading to Grace-style partitioned execution.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/opt"
	"orthoq/internal/sql/types"
)

// spillBudgets are the measured memory caps. Zero means unbounded and
// anchors the comparison.
var spillBudgets = []int64{0, 256 << 10, 64 << 10}

// executeGoverned runs the plan under a memory budget and reports
// rows, elapsed time, peak accounted memory, and spill-file count.
func (p *Plan) executeGoverned(db *DB, budget int64, spillDir string) (res *exec.Result, elapsed time.Duration, err error) {
	ctx := exec.NewContext(db.Store, p.Md)
	ctx.Stats = db.Stats
	ctx.MemBudget = budget
	ctx.SpillDir = spillDir
	start := time.Now()
	r, err := exec.Run(ctx, p.Rel, p.Out)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", p.Name, err)
	}
	return r, time.Since(start), nil
}

// RunSpill measures unbounded vs memory-bounded (spilling) execution
// of the memory-hungry workloads. With jsonOut set, each measurement
// is one JSON line carrying peak_mem_bytes and spills.
func RunSpill(w io.Writer, db *DB, reps int, jsonOut bool) error {
	spillDir, err := os.MkdirTemp("", "orthoq-bench-spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spillDir)

	if !jsonOut {
		fmt.Fprintf(w, "== memory-bounded execution: unbounded vs spilling (SF %g) ==\n\n", db.SF)
	}
	tab := &table{header: []string{"query", "rows"}}
	for _, b := range spillBudgets {
		tab.header = append(tab.header, budgetLabel(b), "peak", "spills")
	}
	enc := json.NewEncoder(w)
	for _, wl := range parallelWorkloads() {
		plan, err := compile(db, wl.name, wl.sql, core.Options{}, nil)
		if err != nil {
			return err
		}
		plan = optimize(db, plan, opt.Config{DisableRules: opt.Disable(opt.FamilyCorrelatedReintro)})
		var baseline []types.Row
		cells := []string{wl.name, ""}
		for _, budget := range spillBudgets {
			check, _, err := plan.executeGoverned(db, budget, spillDir)
			if err != nil {
				return err
			}
			if budget == 0 {
				baseline = check.Rows
				cells[1] = fmt.Sprint(len(check.Rows))
			} else if !sameBagApprox(baseline, check.Rows) {
				return fmt.Errorf("%s: budget %d result differs from unbounded", wl.name, budget)
			}
			var peak, spills int64
			elapsed, err := medianTime(reps, func() (time.Duration, error) {
				r, d, err := plan.executeGoverned(db, budget, spillDir)
				if err == nil {
					peak, spills = r.PeakMem, r.Spills
				}
				return d, err
			})
			if err != nil {
				return err
			}
			if jsonOut {
				enc.Encode(Result{Experiment: "spill", Query: wl.name,
					Config: budgetLabel(budget), SF: db.SF, Workers: 1,
					NsPerOp: elapsed.Nanoseconds(), Rows: len(check.Rows),
					PeakMemBytes: peak, Spills: spills})
			}
			cells = append(cells, fmtDur(elapsed), fmtBytes(peak), fmt.Sprint(spills))
		}
		tab.add(cells...)
	}
	if !jsonOut {
		tab.write(w)
		fmt.Fprintln(w)
	}
	return nil
}

func budgetLabel(b int64) string {
	if b == 0 {
		return "unbounded"
	}
	return fmtBytes(b)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
