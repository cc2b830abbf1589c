package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"orthoq"
	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/opt"
	"orthoq/internal/plancache"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/parser"
	"orthoq/internal/stats"
	"orthoq/internal/storage"
	"orthoq/internal/wal"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share Op; Parent is the ID of the
// span that caused this one (0 for the operation's root).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Operator spans come from the engine's own trace (Config.Trace):
	// they carry the engine's accumulated busy and self time and row
	// count in place of an interval.
	BusyNS int64 `json:"busy_ns,omitempty"`
	SelfNS int64 `json:"self_ns,omitempty"`
	Rows   int64 `json:"rows,omitempty"`
}

const operatorPrefix = "exec.op."

// recorder collects the spans and side measurements of one client's
// traced operations in memory.
type recorder struct {
	t0      time.Time
	client  int
	ops     int
	spans   []span
	samples map[string][]float64
	counts  map[string]float64
	plans   map[string]string // final plan text per Q1 spelling
}

func newRecorder(t0 time.Time, client int) *recorder {
	return &recorder{t0: t0, client: client, samples: map[string][]float64{},
		counts: map[string]float64{}, plans: map[string]string{}}
}

// beginOp opens the root span of the client's next operation.
func (r *recorder) beginOp(name string) int {
	r.ops++
	return r.begin(0, name)
}

// begin opens a span under parent and returns its ID.
func (r *recorder) begin(parent int, name string) int {
	// Clients number their operations apart so that merged traces keep
	// one identifier per operation.
	r.spans = append(r.spans, span{Op: r.ops*wireSessions + r.client, ID: len(r.spans) + 1,
		Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.End - s.Start)
}

// operators records the engine's operator span tree under parent.
func (r *recorder) operators(parent int, sp *orthoq.Span) {
	sp.Walk(func(s *orthoq.Span) {
		at := r.spans[parent-1].Start
		r.spans = append(r.spans, span{Op: r.spans[parent-1].Op, ID: len(r.spans) + 1, Parent: parent,
			Name: operatorPrefix + s.Op, Start: at, End: at,
			BusyNS: int64(s.Busy), SelfNS: int64(s.Self), Rows: s.Rows})
	})
}

// shadow is a second, in-memory copy of the database that the traced
// run drives layer by layer, so that spans can be recorded around each
// layer's public entry point without touching the engine.
type shadow struct {
	store *storage.Store
	cat   *catalog.Catalog
	stats *stats.Collection
	db    *orthoq.DB
	// log is a scratch write-ahead log under the always policy, for
	// timing LogInsert alone.
	log    *wal.Manager
	logDir string
}

func newShadow(store *storage.Store, withEvents bool) (*shadow, error) {
	sh := &shadow{store: store, cat: store.Catalog, db: orthoq.Open(store)}
	if withEvents {
		if err := sh.db.CreateTable(eventsTable()); err != nil {
			return nil, err
		}
	}
	sh.stats = stats.Collect(store)
	sh.logDir = filepath.Join(benchDir(), "out", fmt.Sprintf("scratchlog-%d", os.Getpid()))
	if err := os.RemoveAll(sh.logDir); err != nil {
		return nil, err
	}
	var err error
	sh.log, _, _, err = wal.Open(wal.Options{Dir: sh.logDir, Policy: wal.SyncAlways})
	return sh, err
}

func (sh *shadow) close() error {
	sh.log.Kill()
	return os.RemoveAll(sh.logDir)
}

// staged is the outcome of one layer-by-layer compilation and run.
type staged struct {
	plan string
	rows []orthoq.Row
}

// stage compiles and runs sql the way DB.Query does under
// DefaultConfig, but one public layer call at a time with a span around
// each. The fidelity check holds it to the engine's own sequence.
func (sh *shadow) stage(r *recorder, parent int, sql string) (staged, error) {
	id := r.begin(parent, "plancache.fingerprint")
	_, _, err := plancache.Fingerprint(sql)
	r.end(id)
	if err != nil {
		return staged{}, err
	}

	id = r.begin(parent, "parser")
	q, err := parser.Parse(sql)
	r.end(id)
	if err != nil {
		return staged{}, err
	}

	md := algebra.NewMetadata()
	id = r.begin(parent, "algebrize")
	built, err := algebrize.Build(sh.cat, md, q)
	r.end(id)
	if err != nil {
		return staged{}, err
	}

	// Normalisation runs twice, as in the engine: once to the normal
	// form and once keeping correlations, which seeds the optimiser with
	// the correlated strategy.
	id = r.begin(parent, "core.normalize")
	rel, err := core.Normalize(md, built.Rel, core.Options{Record: func(string) { r.counts["core.rules_fired"]++ }})
	var seeds []algebra.Rel
	if err == nil {
		if seed, serr := core.Normalize(md, built.Rel, core.Options{KeepCorrelated: true}); serr == nil {
			seeds = append(seeds, seed)
		}
	}
	r.end(id)
	if err != nil {
		return staged{}, err
	}

	id = r.begin(parent, "opt")
	o := &opt.Optimizer{Md: md, Cat: sh.cat, Stats: sh.stats}
	res := o.Optimize(rel, seeds...)
	r.end(id)
	r.counts["opt.plans_explored"] += float64(res.Explored)
	r.counts["opt.rules_fired"] += float64(len(res.Rules))
	r.counts["opt.plan_cost_sum"] += res.Cost

	id = r.begin(parent, "exec")
	ctx := exec.NewContext(sh.store, md)
	ctx.Stats = sh.stats
	ctx.EnableTrace()
	out, err := exec.Run(ctx, res.Plan, built.OutCols)
	r.end(id)
	if err != nil {
		return staged{}, err
	}
	r.operators(id, ctx.Spans(res.Plan))
	r.counts["exec.rows_out"] += float64(len(out.Rows))
	r.counts["exec.spills"] += float64(out.Spills)
	r.counts["exec.peak_mem_bytes_max"] = max(r.counts["exec.peak_mem_bytes_max"], float64(out.PeakMem))
	return staged{plan: algebra.FormatRel(md, res.Plan), rows: out.Rows}, nil
}

// checkFidelity requires, for each statement, that the staged sequence
// ends in the plan the engine itself compiles, so that per-layer
// numbers cannot drift from what DB.Query does.
func (sh *shadow) checkFidelity(sqls []string) error {
	scratch := newRecorder(time.Now(), 0)
	for _, sql := range sqls {
		st, err := sh.stage(scratch, scratch.beginOp("fidelity"), sql)
		if err != nil {
			return fmt.Errorf("staged pipeline: %w\n%s", err, sql)
		}
		stmt, err := sh.db.Prepare(sql, orthoq.DefaultConfig())
		if err != nil {
			return err
		}
		if st.plan != stmt.Plan() {
			return fmt.Errorf("the staged pipeline and DB.Prepare disagree on the plan of\n%s\nstaged:\n%s\nengine:\n%s",
				sql, st.plan, stmt.Plan())
		}
	}
	return nil
}

// operatorFamily groups the engine's operator names for the exec.op.*
// breakdown.
func operatorFamily(op string) string {
	switch op {
	case "Get", "Select", "Project", "Values":
		return "scan"
	case "Join":
		return "join"
	case "GroupBy":
		return "agg"
	case "Apply", "SegmentApply", "SegmentRef", "Max1Row":
		return "apply"
	case "Sort", "Top", "RowNumber":
		return "sort"
	}
	return "other"
}

// layerMetrics folds the recorders of a traced run into per-layer
// numbers: a layer's self time is its spans' duration minus the part
// their child spans cover.
func layerMetrics(recs []*recorder, m map[string]float64) {
	selfMS := map[string]float64{}
	calls := map[string]float64{}
	var rootNS, rootSelfNS int64
	families := map[string]float64{}
	samples := map[string][]float64{}
	plans := map[string]bool{}
	for _, counted := range []string{"core.rules_fired", "opt.plans_explored", "opt.rules_fired", "opt.plan_cost_sum",
		"exec.rows_out", "exec.rows_examined", "exec.spills", "exec.peak_mem_bytes_max", "driver.traced_ops"} {
		m[counted] = 0
	}
	for _, r := range recs {
		covered := make([]int64, len(r.spans)+1)
		for _, s := range r.spans {
			if strings.HasPrefix(s.Name, operatorPrefix) {
				families[operatorFamily(strings.TrimPrefix(s.Name, operatorPrefix))] += float64(s.SelfNS) / 1e6
				m["exec.rows_examined"] += float64(s.Rows)
				continue
			}
			covered[s.Parent] += s.End - s.Start
		}
		for _, s := range r.spans {
			if strings.HasPrefix(s.Name, operatorPrefix) {
				continue
			}
			self := s.End - s.Start - covered[s.ID]
			if s.Parent == 0 {
				rootNS += s.End - s.Start
				rootSelfNS += self
				continue
			}
			selfMS[s.Name] += float64(self) / 1e6
			calls[s.Name]++
			samples[s.Name] = append(samples[s.Name], float64(s.End-s.Start)/1e3)
		}
		for k, v := range r.counts {
			if k == "exec.peak_mem_bytes_max" {
				m[k] = max(m[k], v)
			} else {
				m[k] += v
			}
		}
		for k, v := range r.samples {
			samples[k] = append(samples[k], v...)
		}
		for _, p := range r.plans {
			plans[p] = true
		}
		m["driver.traced_ops"] += float64(r.ops)
	}
	m["parser.self_ms"], m["parser.calls"] = selfMS["parser"], calls["parser"]
	m["algebrize.self_ms"], m["algebrize.calls"] = selfMS["algebrize"], calls["algebrize"]
	m["core.normalize_self_ms"] = selfMS["core.normalize"]
	m["opt.self_ms"] = selfMS["opt"]
	m["opt.q1_distinct_plans"] = float64(len(plans))
	m["exec.self_ms"] = selfMS["exec"]
	for _, f := range []string{"scan", "join", "agg", "apply", "sort", "other"} {
		m["exec.op."+f+"_self_ms"] = families[f]
	}
	m["plancache.fingerprint_us_p50"] = median(samples["plancache.fingerprint"])
	m["storage.insert_us_p50"] = median(samples["storage.insert"])
	m["storage.rows_inserted"] = calls["storage.insert"] * eventsPerBatch
	m["wal.log_insert_us_p50"] = median(samples["wal.log_insert"])
	m["orthoq.warm_overhead_us_p50"] = median(samples["orthoq.warm_overhead"])
	m["server.overhead_us_p50"] = median(samples["server.overhead"])
	m["server.queued_us_p50"] = median(samples["server.queued"])
	// The share of each operation's root span that its child spans
	// account for; the rest is the benchmark's own glue.
	m["driver.span_coverage_share"] = 1 - ratio(float64(rootSelfNS), float64(rootNS))
}

// writeTrace writes every span as one JSON line.
func writeTrace(path string, recs []*recorder) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
