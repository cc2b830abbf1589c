package main

import (
	"math/rand"
	"strings"
	"time"

	"orthoq"
)

// analyticClient is the single embedded client of the analytic
// workloads: it runs the 15 queries through DB.QueryCfg in passes, each
// pass in a new seeded order, and checks every answer.
type analyticClient struct {
	db      *orthoq.DB
	cfg     orthoq.Config
	queries []query
	golden  map[string]answer
	rng     *rand.Rand
	order   []int
	pos     int
	// passEnds are the completion times of the passes of the current
	// window.
	passEnds []time.Duration
}

// setupAnalytic generates the database in memory. Cold disables the
// plan cache so that every query is optimised again; warm runs one pass
// first so that every later query finds its plan cached.
func setupAnalytic(wl workload, golden map[string]answer, seed int64) (*env, error) {
	db, err := orthoq.OpenTPCH(wl.sf, dataSeed)
	if err != nil {
		return nil, err
	}
	c := &analyticClient{db: db, cfg: orthoq.DefaultConfig(), queries: analyticQueries(), golden: golden,
		rng: rand.New(rand.NewSource(seed))}
	c.cfg.PlanCache.Disabled = wl.cold
	e := &env{wl: wl, db: db, clients: []client{c}}
	for i, q := range c.queries {
		e.kinds = append(e.kinds, q.name)
		c.order = append(c.order, i)
	}
	if !wl.cold {
		for range c.queries {
			if o := c.do(time.Now()); !o.ok {
				return nil, errWarmup
			}
		}
		c.passEnds = nil
	}
	return e, nil
}

// next returns the client's next query, shuffling at the start of each
// pass.
func (c *analyticClient) next() (int, query) {
	if c.pos == 0 {
		c.rng.Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
	}
	kind := c.order[c.pos]
	c.pos = (c.pos + 1) % len(c.order)
	return kind, c.queries[kind]
}

func (c *analyticClient) do(t0 time.Time) op {
	kind, q := c.next()
	start := time.Now()
	rows, err := c.db.QueryCfg(q.sql, c.cfg)
	lat := time.Since(start)
	ok := err == nil && answerOf(rows.Data) == c.golden[q.name]
	if !ok {
		complain("%s: wrong answer or error: %v", q.name, err)
	}
	o := op{kind: kind, lat: lat, ok: ok, self: time.Since(start) - lat, end: time.Since(t0)}
	if c.pos == 0 {
		c.passEnds = append(c.passEnds, o.end)
	}
	return o
}

func (c *analyticClient) mayStop() bool { return c.pos == 0 }

func (c *analyticClient) sliceBounds(time.Duration) []time.Duration {
	b := append([]time.Duration{0}, c.passEnds...)
	c.passEnds = nil
	return b
}

// doTraced runs the next query once through the engine with operator
// tracing on and once layer by layer on the shadow.
func (c *analyticClient) doTraced(r *recorder, sh *shadow) op {
	kind, q := c.next()
	root := r.beginOp(q.name)
	cfg := c.cfg
	cfg.Trace = true
	id := r.begin(root, "query")
	rows, err := c.db.QueryCfg(q.sql, cfg)
	lat := r.end(id)
	ok := err == nil && answerOf(rows.Data) == c.golden[q.name]
	if ok {
		r.samples["orthoq.warm_overhead"] = append(r.samples["orthoq.warm_overhead"], us(lat-rows.Elapsed))
		var st staged
		st, err = sh.stage(r, root, q.sql)
		ok = err == nil && answerOf(st.rows) == c.golden[q.name]
		if strings.HasPrefix(q.name, q1Prefix) {
			r.plans[q.name] = st.plan
		}
	}
	if !ok {
		complain("%s (traced): wrong answer or error: %v", q.name, err)
	}
	r.end(root)
	return op{kind: kind, lat: lat, ok: ok}
}
