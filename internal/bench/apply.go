// Binding-batch Apply experiment: correlated plans the rewrites would
// normally remove, pinned to correlated (Apply) execution and timed
// under each Apply strategy — sequential (inner re-opened per outer
// row), batched (inner executed once per distinct correlation binding
// per batch), and parallel (distinct bindings spread over a worker
// pool). Workloads sweep the distinct-binding ratio, the quantity that
// decides the dedup win: few distinct bindings make batching collapse
// thousands of inner executions into dozens; all-distinct bindings
// make it pure overhead. Every strategy's result set is verified
// identical before timing, and inner-execution counts come from the
// trace counters (bindings=, inner-execs=) of an instrumented run.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/obs"
)

// applyWorkloads sweep the distinct-binding ratio. The labels carry
// the nominal ratio; the measured value is reported per run (it
// depends on the scale factor).
func applyWorkloads() []struct{ name, sql string } {
	return []struct{ name, sql string }{
		// Q17's shape: scalar avg() correlated on l_partkey. Bindings
		// repeat heavily — parts each have many lineitems.
		{"scalar-agg/partkey", `
select l_orderkey, l_linenumber from lineitem
where l_quantity < (
      select 0.5 * avg(l2.l_quantity) from lineitem l2
      where l2.l_partkey = lineitem.l_partkey)`},
		// Correlated on o_custkey: an order-of-magnitude fewer rows per
		// binding than partkey, a mid-range dedup ratio.
		{"scalar-agg/custkey", `
select o_orderkey from orders
where o_totalprice > (
      select avg(o2.o_totalprice) from orders o2
      where o2.o_custkey = orders.o_custkey)`},
		// Correlated on the unique o_orderkey: every binding distinct,
		// the cache never hits — the batching-overhead worst case.
		{"exists/orderkey", `
select o_orderkey from orders
where exists (
      select l.l_orderkey from lineitem l
      where l.l_orderkey = orders.o_orderkey)`},
	}
}

// applyStrategies are the measured configurations. Workers only
// matters to the parallel strategy's pool size.
var applyStrategies = []struct {
	name    string
	workers int
}{
	{"sequential", 1},
	{"batched", 1},
	{"parallel", 4},
}

// executeApply runs the plan with the Apply strategy forced, and
// optionally collects the plan's Apply trace counters.
func (p *Plan) executeApply(db *DB, strategy string, workers int, traced bool) (rows int, elapsed time.Duration, bindings, innerExecs int64, err error) {
	ctx := exec.NewContext(db.Store, p.Md)
	ctx.Stats = db.Stats
	ctx.Apply = strategy
	ctx.Parallelism = workers
	if traced {
		ctx.EnableTrace()
	}
	start := time.Now()
	res, err := exec.Run(ctx, p.Rel, p.Out)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("%s/%s: %w", p.Name, strategy, err)
	}
	elapsed = time.Since(start)
	if traced {
		ctx.Spans(p.Rel).Walk(func(sp *obs.Span) {
			bindings += sp.Bindings
			innerExecs += sp.InnerExecs
		})
	}
	return len(res.Rows), elapsed, bindings, innerExecs, nil
}

// RunApply measures correlated Apply execution under each strategy.
// With jsonOut set, each measurement is one JSON line instead of the
// text table.
func RunApply(w io.Writer, db *DB, reps int, jsonOut bool) error {
	if !jsonOut {
		fmt.Fprintf(w, "== binding-batch Apply: sequential vs batched vs parallel (SF %g) ==\n\n", db.SF)
	}
	enc := json.NewEncoder(w)
	tab := &table{header: []string{"workload", "rows", "distinct", "inner-execs", "sequential", "batched", "parallel", "speedup"}}
	for _, wl := range applyWorkloads() {
		// KeepCorrelated pins the plan to Apply execution: this
		// experiment measures the executor's strategies, not the
		// optimizer's ability to remove the Apply.
		plan, err := compile(db, wl.name, wl.sql, core.Options{KeepCorrelated: true}, nil)
		if err != nil {
			return err
		}

		var (
			fp       string
			warms    = map[string]time.Duration{}
			rowCount int
			seqExecs int64
			dedup    string
			execsTxt string
		)
		for _, sc := range applyStrategies {
			rows, _, bindings, innerExecs, err := plan.executeApply(db, sc.name, sc.workers, true)
			if err != nil {
				return err
			}
			ctx := exec.NewContext(db.Store, plan.Md)
			ctx.Stats = db.Stats
			ctx.Apply = sc.name
			ctx.Parallelism = sc.workers
			res, err := exec.Run(ctx, plan.Rel, plan.Out)
			if err != nil {
				return err
			}
			got := fingerprintRows(res.Rows)
			if fp == "" {
				fp = got
			} else if got != fp {
				return fmt.Errorf("%s: %s result differs from sequential", wl.name, sc.name)
			}
			rowCount = rows
			if sc.name == "sequential" {
				seqExecs = innerExecs
			}
			if sc.name == "batched" {
				if bindings > 0 {
					dedup = fmt.Sprintf("%.1f%%", 100*float64(innerExecs)/float64(bindings))
				}
				execsTxt = fmt.Sprintf("%d→%d", seqExecs, innerExecs)
			}
			warm, err := medianTime(reps, func() (time.Duration, error) {
				_, d, _, _, err := plan.executeApply(db, sc.name, sc.workers, false)
				return d, err
			})
			if err != nil {
				return err
			}
			warms[sc.name] = warm
			if jsonOut {
				enc.Encode(Result{Experiment: "apply", Query: wl.name, Config: sc.name,
					Phase: "warm", SF: db.SF, Workers: sc.workers,
					NsPerOp: warm.Nanoseconds(), Rows: rows,
					Bindings: bindings, InnerExecs: innerExecs})
			}
		}
		best := warms["batched"]
		if warms["parallel"] < best {
			best = warms["parallel"]
		}
		tab.add(wl.name, fmt.Sprint(rowCount), dedup, execsTxt,
			fmtDur(warms["sequential"]), fmtDur(warms["batched"]), fmtDur(warms["parallel"]),
			fmt.Sprintf("%.2fx", float64(warms["sequential"])/float64(best)))
	}
	if !jsonOut {
		tab.write(w)
		fmt.Fprintln(w)
	}
	return nil
}
