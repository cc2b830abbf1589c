// Batch-execution experiment: row-at-a-time interpreted execution
// measured against batch-at-a-time execution with compiled
// expressions, serially (Parallelism 1) over scan-heavy TPC-H
// queries. Cold times include the iterator Open (where expressions
// compile); warm times are the median of repeated runs. Results can
// be emitted as JSON lines comparable with the parallel experiment.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/opt"
	"orthoq/internal/sql/types"
	"orthoq/internal/tpch"
)

// ExecuteMode runs the plan serially in the requested pull mode and
// reports row count and elapsed time.
func (p *Plan) ExecuteMode(db *DB, disableBatch bool) (rows int, elapsed time.Duration, err error) {
	ctx := exec.NewContext(db.Store, p.Md)
	ctx.Stats = db.Stats
	ctx.DisableBatch = disableBatch
	start := time.Now()
	res, err := exec.Run(ctx, p.Rel, p.Out)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", p.Name, err)
	}
	return len(res.Rows), time.Since(start), nil
}

// batchWorkloads are the measured queries: the scan-heavy TPC-H
// shapes the batch path targets, plus a bare scan+filter.
func batchWorkloads() []struct{ name, sql string } {
	return []struct{ name, sql string }{
		{"scan-filter", `select l_orderkey, l_extendedprice from lineitem
			where l_quantity > 30 and l_discount > 0.02`},
		{"Q1", tpch.Queries["Q1"]},
		{"Q6", tpch.Queries["Q6"]},
		{"Q17", tpch.Queries["Q17"]},
	}
}

// materializeMode runs the plan serially in the given pull mode and
// returns all rows.
func materializeMode(db *DB, p *Plan, disableBatch bool) ([]types.Row, error) {
	ctx := exec.NewContext(db.Store, p.Md)
	ctx.Stats = db.Stats
	ctx.DisableBatch = disableBatch
	res, err := exec.Run(ctx, p.Rel, p.Out)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// RunBatch measures row-mode (interpreted) vs batch-mode (compiled)
// serial execution of the workloads. Each mode's result set is
// verified identical before timing; with jsonOut set, each
// measurement is written as one JSON line instead of the text table.
func RunBatch(w io.Writer, db *DB, reps int, jsonOut bool) error {
	if !jsonOut {
		fmt.Fprintf(w, "== batch execution: row-at-a-time interpreted vs batch compiled (SF %g, serial) ==\n\n",
			db.SF)
	}
	enc := json.NewEncoder(w)
	tab := &table{header: []string{"query", "rows", "row cold", "batch cold", "row warm", "batch warm", "speedup"}}
	for _, wl := range batchWorkloads() {
		plan, err := compile(db, wl.name, wl.sql, core.Options{}, nil)
		if err != nil {
			return err
		}
		plan = optimize(db, plan, opt.Config{DisableRules: opt.Disable(opt.FamilyCorrelatedReintro)})

		rowRows, err := materializeMode(db, plan, true)
		if err != nil {
			return err
		}
		batchRows, err := materializeMode(db, plan, false)
		if err != nil {
			return err
		}
		if fingerprintRows(rowRows) != fingerprintRows(batchRows) {
			return fmt.Errorf("%s: batch result differs from row result", wl.name)
		}

		var cells []string
		cells = append(cells, wl.name, fmt.Sprint(len(rowRows)))
		warms := map[string]time.Duration{}
		for _, mode := range []struct {
			config  string
			disable bool
		}{{"row", true}, {"batch", false}} {
			rows, cold, err := plan.ExecuteMode(db, mode.disable)
			if err != nil {
				return err
			}
			if jsonOut {
				enc.Encode(Result{Experiment: "batch", Query: wl.name, Config: mode.config,
					Phase: "cold", SF: db.SF, Workers: 1, NsPerOp: cold.Nanoseconds(), Rows: rows})
			}
			cells = append(cells, fmtDur(cold))
			warm, err := medianTime(reps, func() (time.Duration, error) {
				_, d, err := plan.ExecuteMode(db, mode.disable)
				return d, err
			})
			if err != nil {
				return err
			}
			warms[mode.config] = warm
			if jsonOut {
				enc.Encode(Result{Experiment: "batch", Query: wl.name, Config: mode.config,
					Phase: "warm", SF: db.SF, Workers: 1, NsPerOp: warm.Nanoseconds(), Rows: rows})
			}
		}
		cells = append(cells, fmtDur(warms["row"]), fmtDur(warms["batch"]),
			fmt.Sprintf("%.2fx", float64(warms["row"])/float64(warms["batch"])))
		tab.add(cells...)
	}
	if !jsonOut {
		tab.write(w)
		fmt.Fprintln(w)
	}
	return nil
}
