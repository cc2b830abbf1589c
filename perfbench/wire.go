package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"orthoq"
	"orthoq/internal/server"
	"orthoq/internal/sql/types"
)

const (
	// wireSessions is the number of closed-loop sessions of the wire
	// workloads: one per core of the sandbox, each waiting for its reply
	// before it sends the next statement, as a database session does.
	wireSessions   = 2
	eventsPerBatch = 8
	eventsSQL      = "select count(*), sum(val) from bench_events"
)

// The operation kinds of the wire workloads.
const (
	kindPoint = iota
	kindQ1
	kindInsert
	kindReadBack
)

var wireKinds = []string{"point_read", "q1_one_customer", "insert_batch", "read_back"}

// eventsTable is the scratch table the durable workload writes to.
func eventsTable() *orthoq.Table {
	return &orthoq.Table{
		Name:    "bench_events",
		Columns: []orthoq.Column{{Name: "id", Type: types.Int}, {Name: "val", Type: types.Int}},
		Key:     []int{0},
	}
}

// ledger counts the rows and the sum of val of the insert batches sent
// and of those acknowledged. A read-back must lie between what was
// acknowledged before it was sent and what was sent before its reply.
type ledger struct {
	sentRows, sentSum, ackedRows, ackedSum atomic.Int64
}

// setupWire opens the database (in memory, or durable under the always
// policy), serves it over loopback HTTP with the server's defaults,
// opens the sessions and warms them up.
func setupWire(wl workload, or *oracle, seed int64, warmupOps int) (*env, error) {
	e := &env{wl: wl, kinds: wireKinds, or: or, events: &ledger{}}
	var err error
	if wl.durable {
		// always is stated and fixed: the default interval policy would
		// measure its 2 ms group-commit timer, not the program.
		e.durable = orthoq.DurableConfig{
			DataDir:    filepath.Join(benchDir(), "out", fmt.Sprintf("data-%d", os.Getpid())),
			SyncPolicy: "always",
		}
		if err := os.RemoveAll(e.durable.DataDir); err != nil {
			return nil, err
		}
		if e.db, err = orthoq.OpenDurableTPCH(wl.sf, dataSeed, e.durable); err != nil {
			return nil, err
		}
		if err := e.db.CreateTable(eventsTable()); err != nil {
			return nil, err
		}
	} else if e.db, err = orthoq.OpenTPCH(wl.sf, dataSeed); err != nil {
		return nil, err
	}
	e.srv = server.New(e.db, server.Config{})
	e.http = httptest.NewServer(e.srv.Handler())
	// A request that hangs fails the operation and not the whole run.
	e.http.Client().Timeout = 30 * time.Second

	hot := rand.New(rand.NewSource(seed)).Perm(or.customers)
	for i := 0; i < wireSessions; i++ {
		rng := rand.New(rand.NewSource(seed*wireSessions + int64(i)))
		c := &wireClient{e: e, id: i, rng: rng, hot: hot,
			zipf: rand.NewZipf(rng, 1.1, 1, uint64(or.customers-1))}
		body, _, err := e.post("/session", struct{}{})
		if err != nil {
			return nil, err
		}
		var created struct {
			Session string `json:"session"`
		}
		if err := json.Unmarshal(body, &created); err != nil {
			return nil, err
		}
		c.session = created.Session
		e.clients = append(e.clients, c)
	}
	var wg sync.WaitGroup
	var bad atomic.Bool
	for _, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < warmupOps; i++ {
				if !c.do(time.Now()).ok {
					bad.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if bad.Load() {
		return nil, errWarmup
	}
	return e, nil
}

// post sends one JSON request and reads the whole reply; lat runs from
// the request being sent to the last byte being read.
func (e *env) post(path string, req any) (body []byte, lat time.Duration, err error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := e.http.Client().Post(e.http.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, time.Since(start), err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(start)
	e.bytesOut.Add(int64(len(body)))
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, lat, err
}

// reply is a decoded /query response.
type reply struct {
	rows     [][]any
	cache    string
	queuedUS float64
}

func parseReply(body []byte) (reply, error) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var trailer struct {
		Done     bool    `json:"done"`
		Rows     int     `json:"rows"`
		Cache    string  `json:"cache"`
		QueuedUS float64 `json:"queued_us"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil || !trailer.Done || len(lines) < 2 {
		return reply{}, fmt.Errorf("reply without a trailer: %q", body)
	}
	rep := reply{cache: trailer.Cache, queuedUS: trailer.QueuedUS}
	for _, line := range lines[1 : len(lines)-1] {
		var row struct {
			Row []any `json:"row"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			return reply{}, err
		}
		rep.rows = append(rep.rows, row.Row)
	}
	if trailer.Rows != len(rep.rows) {
		return reply{}, fmt.Errorf("trailer counts %d rows, reply has %d", trailer.Rows, len(rep.rows))
	}
	return rep, nil
}

// wireClient is one session of a wire workload.
type wireClient struct {
	e       *env
	id      int
	session string
	rng     *rand.Rand
	zipf    *rand.Zipf
	// hot maps a popularity rank drawn from zipf to a customer, so that
	// the popular customers change with the seed.
	hot     []int
	batches int64
}

// statement is one drawn operation.
type statement struct {
	kind  int
	sql   string
	key   int64
	batch [][]int64
}

// draw picks the client's next operation. Reads are 80 % name lookups
// and 20 % the paper's Q1 restricted to one customer, the customer
// Zipf(1.1)-distributed; the durable workload replaces 22 % of the
// operations by insert batches (20 %) and read-backs (2 %).
func (c *wireClient) draw() statement {
	if c.e.wl.durable {
		switch x := c.rng.Float64(); {
		case x < 0.20:
			st := statement{kind: kindInsert}
			for i := 0; i < eventsPerBatch; i++ {
				id := (int64(c.id)<<40 | c.batches<<4) + int64(i)
				st.batch = append(st.batch, []int64{id, 1 + c.rng.Int63n(1000)})
			}
			c.batches++
			return st
		case x < 0.22:
			return statement{kind: kindReadBack, sql: eventsSQL}
		}
	}
	key := int64(c.hot[c.zipf.Uint64()] + 1)
	if c.rng.Float64() < 0.8 {
		return statement{kind: kindPoint, key: key, sql: pointRead(key)}
	}
	return statement{kind: kindQ1, key: key, sql: restrictedQ1(key, c.e.or.threshold)}
}

func pointRead(key int64) string {
	return fmt.Sprintf("select c_name from customer where c_custkey = %d", key)
}

func restrictedQ1(key int64, threshold float64) string {
	return fmt.Sprintf(`select c_custkey from customer where c_custkey = %d
		and %.1f < (select sum(o_totalprice) from orders where o_custkey = c_custkey)`, key, threshold)
}

// send performs the statement over the wire and checks the answer.
func (c *wireClient) send(st statement) (op, reply) {
	o := op{kind: st.kind, write: st.kind == kindInsert}
	led := c.e.events
	if o.write {
		var sum int64
		for _, row := range st.batch {
			sum += row[1]
		}
		led.sentRows.Add(eventsPerBatch)
		led.sentSum.Add(sum)
		var req struct {
			Session string `json:"session"`
			Insert  struct {
				Table string    `json:"table"`
				Rows  [][]int64 `json:"rows"`
			} `json:"insert"`
		}
		req.Session, req.Insert.Table, req.Insert.Rows = c.session, "bench_events", st.batch
		body, lat, err := c.e.post("/exec", req)
		var ack struct {
			Inserted int `json:"inserted"`
		}
		o.lat = lat
		o.ok = err == nil && json.Unmarshal(body, &ack) == nil && ack.Inserted == eventsPerBatch
		if o.ok {
			led.ackedRows.Add(eventsPerBatch)
			led.ackedSum.Add(sum)
		} else {
			complain("insert batch: %v %s", err, body)
		}
		return o, reply{}
	}

	loRows, loSum := led.ackedRows.Load(), led.ackedSum.Load()
	body, lat, err := c.e.post("/query", struct {
		Session string `json:"session"`
		SQL     string `json:"sql"`
	}{c.session, st.sql})
	o.lat = lat
	var rep reply
	if err == nil {
		rep, err = parseReply(body)
	}
	if err == nil {
		switch st.kind {
		case kindPoint:
			o.ok = len(rep.rows) == 1 && len(rep.rows[0]) == 1 && rep.rows[0][0] == customerName(st.key)
		case kindQ1:
			if c.e.or.bigSpender(st.key) {
				o.ok = len(rep.rows) == 1 && len(rep.rows[0]) == 1 && rep.rows[0][0] == float64(st.key)
			} else {
				o.ok = len(rep.rows) == 0
			}
		case kindReadBack:
			if len(rep.rows) == 1 && len(rep.rows[0]) == 2 {
				rows, _ := rep.rows[0][0].(float64)
				sum, _ := rep.rows[0][1].(float64) // null over the empty table
				o.ok = float64(loRows) <= rows && rows <= float64(led.sentRows.Load()) &&
					float64(loSum) <= sum && sum <= float64(led.sentSum.Load())
			}
		}
	}
	if !o.ok {
		complain("%s: wrong answer or error: %v %s", st.sql, err, body)
	}
	return o, rep
}

func (c *wireClient) do(t0 time.Time) op {
	start := time.Now()
	o, _ := c.send(c.draw())
	o.self = time.Since(start) - o.lat
	o.end = time.Since(t0)
	return o
}

func (c *wireClient) mayStop() bool { return true }

// wireSlices is how many equal slices a wire window is cut into.
const wireSlices = 20

func (c *wireClient) sliceBounds(dur time.Duration) []time.Duration {
	var b []time.Duration
	for i := 0; i <= wireSlices; i++ {
		b = append(b, dur*time.Duration(i)/wireSlices)
	}
	return b
}

// doTraced performs the next operation over the wire and then repeats
// it on the shadow: a read as an embedded query and layer by layer, a
// write as a bare storage insert and a bare log append.
func (c *wireClient) doTraced(r *recorder, sh *shadow) op {
	st := c.draw()
	root := r.beginOp(wireKinds[st.kind])
	id := r.begin(root, "query")
	o, rep := c.send(st)
	r.end(id)
	var err error
	if o.write {
		rows := make([]orthoq.Row, len(st.batch))
		for i, b := range st.batch {
			rows[i] = orthoq.Row{types.NewInt(b[0]), types.NewInt(b[1])}
		}
		id = r.begin(root, "storage.insert")
		err = sh.db.Insert("bench_events", rows...)
		r.end(id)
		if err == nil {
			id = r.begin(root, "wal.log_insert")
			_, err = sh.log.LogInsert("bench_events", rows)
			r.end(id)
		}
	} else {
		cfg := orthoq.DefaultConfig()
		cfg.ResultCache.Enabled = true // as the server's sessions run
		cfg.Trace = true
		id = r.begin(root, "embedded")
		var rows *orthoq.Rows
		rows, err = sh.db.QueryCfg(st.sql, cfg)
		lat := r.end(id)
		if err == nil {
			r.samples["orthoq.warm_overhead"] = append(r.samples["orthoq.warm_overhead"], us(lat-rows.Elapsed))
			r.samples["server.queued"] = append(r.samples["server.queued"], rep.queuedUS)
			// Wire against embedded is a fair difference only when both
			// took the same path; most reads are result-cache hits.
			if rep.cache == "result" && rows.Cache == "result" {
				r.samples["server.overhead"] = append(r.samples["server.overhead"], us(o.lat-lat))
			}
			_, err = sh.stage(r, root, st.sql)
		}
	}
	if err != nil {
		complain("%s (traced): %v", wireKinds[st.kind], err)
		o.ok = false
	}
	r.end(root)
	return o
}

// eventsTotals reads the scratch table back through the engine.
func eventsTotals(db *orthoq.DB) (rows, sum int64, err error) {
	res, err := db.QueryCfg(eventsSQL, orthoq.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	// sum is NULL (and reads as 0) over the empty table.
	return res.Data[0][0].Int(), res.Data[0][1].Int(), nil
}

// crashCheck is the outcome of finishDurable.
type crashCheck struct {
	attempted, failed int
	recovery          time.Duration          // Kill() to OpenDurable returning
	reopened          orthoq.MetricsSnapshot // of the reopened handle: what recovery replayed
}

// finishDurable checks that the scratch table holds exactly the
// acknowledged batches, abandons the handle the way a crash would,
// reopens the directory and checks again. Every acknowledged row that
// is missing counts as one failed operation.
func (e *env) finishDurable() (crashCheck, error) {
	var cc crashCheck
	wantRows, wantSum := e.events.ackedRows.Load(), e.events.ackedSum.Load()
	check := func(when string) error {
		rows, sum, err := eventsTotals(e.db)
		if err != nil {
			return err
		}
		cc.attempted++
		if rows != wantRows || sum != wantSum {
			complain("%s: bench_events holds %d rows summing to %d, acknowledged were %d summing to %d",
				when, rows, sum, wantRows, wantSum)
			cc.failed += int(max(wantRows-rows, 1))
		}
		return nil
	}
	if err := check("before the kill"); err != nil {
		return cc, err
	}
	e.http.Close()
	e.srv.Close()
	e.db.Kill()
	start := time.Now()
	db, err := orthoq.OpenDurable(e.durable)
	cc.recovery = time.Since(start)
	if err != nil {
		return cc, fmt.Errorf("reopen after kill: %w", err)
	}
	e.db = db
	cc.reopened = db.Metrics()
	return cc, check("after kill and reopen")
}
