package server

// Two whole-stack checks under concurrent wire load, at the sizes the
// race leg of scripts/check.sh can afford (SF 0.002): the result cache
// never serves a stale answer while a writer inserts, and an admission
// pool sized to a quarter of the offered load sheds it with typed
// rejects only — no operation fails outright.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"orthoq"
	"orthoq/internal/sql/types"
)

// loadDB is TPC-H at SF 0.002 plus an empty scratch(id, val) table for
// the writers.
func loadDB(t *testing.T) *orthoq.DB {
	t.Helper()
	db, err := orthoq.OpenTPCH(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(&orthoq.Table{
		Name:    "scratch",
		Columns: []orthoq.Column{{Name: "id", Type: types.Int}, {Name: "val", Type: types.Float}},
		Key:     []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// wire is an HTTP client for many goroutines: its calls return their
// failures instead of failing the test.
type wire struct {
	c   *http.Client
	url string
}

func (w wire) post(path string, body any) (int, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := w.c.Post(w.url+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (w wire) session(cfg SessionConfig) (string, error) {
	status, data, err := w.post("/session", cfg)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("create session: %d %s", status, data)
	}
	var out struct {
		Session string `json:"session"`
	}
	if err == nil {
		err = json.Unmarshal(data, &out)
	}
	return out.Session, err
}

// query runs sql inline; a 200 reply must end in its trailer, and its
// rows are returned.
func (w wire) query(sid, sql string) (int, [][]any, error) {
	status, data, err := w.post("/query", map[string]string{"session": sid, "sql": sql})
	if err != nil || status != http.StatusOK {
		return status, nil, err
	}
	var rows [][]any
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var line struct {
			Row  []any `json:"row"`
			Done bool  `json:"done"`
		}
		if err := dec.Decode(&line); err != nil {
			return status, nil, fmt.Errorf("reply without trailer: %v", err)
		}
		if line.Done {
			return status, rows, nil
		}
		if line.Row != nil {
			rows = append(rows, line.Row)
		}
	}
}

func (w wire) insert(sid string, id int, val float64) (int, error) {
	status, _, err := w.post("/exec", map[string]any{"session": sid,
		"insert": map[string]any{"table": "scratch", "rows": [][]any{{id, val}}}})
	return status, err
}

// TestWireResultCacheNoStaleReads: 8 sessions × 5 reads of
// near-duplicate queries, served warm from the result cache, while one
// writer inserts a row and reads count(*) back, 14 times. The writer
// knows the exact count after each insert, so any lower answer is a
// stale cached read; there must be none, and no read may fail.
func TestWireResultCacheNoStaleReads(t *testing.T) {
	const sessions, ops = 8, 5
	srv := New(loadDB(t), Config{Admission: AdmissionConfig{
		MaxConcurrent: sessions + 1, PoolBytes: (sessions + 1) * 8 << 20,
		QueueDepth: 2 * sessions, QueueTimeout: time.Minute,
	}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	w := wire{ts.Client(), ts.URL}

	queries := []string{
		"select count(*), sum(o_totalprice) from orders where o_custkey < 500",
		"select c_custkey from customer where 100000 < (select sum(o_totalprice) from orders where o_custkey = c_custkey)",
		"select c_custkey from customer where 150000 < (select sum(o_totalprice) from orders where o_custkey = c_custkey)",
	}
	for _, name := range []string{"Q1", "Q6", "Q17", "Q18", "Q22"} {
		q, _ := orthoq.TPCHQuery(name)
		queries = append(queries, q)
	}
	sid, err := w.session(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries { // warm the cache: every text misses once here
		if status, _, err := w.query(sid, q); err != nil || status != http.StatusOK {
			t.Fatalf("warm-up %q: %d %v", q, status, err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions*ops+1)
	for si := 0; si < sessions; si++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sid, err := w.session(SessionConfig{})
			for op := 0; op < ops && err == nil; op++ {
				q := queries[(si+op)%len(queries)]
				var status int
				if status, _, err = w.query(sid, q); err == nil && status != http.StatusOK {
					err = fmt.Errorf("read %q: status %d", q, status)
				}
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	for i := 1; i <= sessions*ops/4+4; i++ {
		status, err := w.insert(sid, i, float64(i))
		if err != nil || status != http.StatusOK {
			t.Fatalf("insert %d: %d %v", i, status, err)
		}
		status, rows, err := w.query(sid, "select count(*) from scratch")
		if err != nil || status != http.StatusOK || len(rows) != 1 {
			t.Fatalf("count after insert %d: %d %v %v", i, status, rows, err)
		}
		if got, _ := rows[0][0].(float64); int(got) != i {
			t.Errorf("count after insert %d read %v: a stale cached answer", i, rows[0][0])
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := srv.Metrics().ResultCache; m == nil || m.Hits == 0 {
		t.Errorf("the readers were never served from the result cache (%+v); the check proved nothing", m)
	}
}

// TestWireSaturationNoFailedOps: 32 sessions each send 5 operations at
// once — four point reads and an insert — against an admission pool
// sized to a quarter of the sessions. Its slots are held until the
// reads have filled the queue and the rest been turned away, so the
// pool saturates by construction, not by timing. Queueing and typed
// rejects (503 admission, 429 session cap) are the expected answers;
// any other status, a transport error or a truncated reply is a failed
// operation, and there must be none. The queued reads then complete,
// every acknowledged insert is visible, and the pool is returned.
func TestWireSaturationNoFailedOps(t *testing.T) {
	const sessions, ops = 32, 5
	db := loadDB(t)
	custRows, _ := db.TableRowCount("customer")
	srv := New(db, Config{
		Admission: AdmissionConfig{
			MaxConcurrent: sessions / 4, PoolBytes: sessions / 4 * 4 << 20, DefaultReserve: 4 << 20,
			QueueDepth: sessions / 2, QueueTimeout: 10 * time.Second,
		},
		Session: SessionConfig{MaxConcurrent: 4},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	w := wire{ts.Client(), ts.URL}

	sids := make([]string, sessions)
	for si := range sids {
		var err error
		if sids[si], err = w.session(SessionConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	var held []func()
	for range sessions / 4 {
		release, _, err := srv.adm.Admit(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, release)
	}
	var mu sync.Mutex
	var ok, rejects, inserts int
	var wg sync.WaitGroup
	for si, sid := range sids {
		for op := 0; op < ops; op++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var status int
				var err error
				if op == ops-1 {
					status, err = w.insert(sid, si, float64(op))
				} else {
					sql := fmt.Sprintf("select c_name from customer where c_custkey = %d", 1+(si*131+op*17)%custRows)
					status, _, err = w.query(sid, sql)
				}
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err != nil:
					t.Errorf("session %d op %d: %v", si, op, err)
				case status == http.StatusOK:
					ok++
					if op == ops-1 {
						inserts++
					}
				case status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests:
					rejects++
				default:
					t.Errorf("session %d op %d: status %d", si, op, status)
				}
			}()
		}
	}
	reads, queue := sessions*(ops-1), sessions/2
	saturated := func() bool {
		return srv.sm.QueueDepth.Load() == int64(queue) && srv.sm.AdmissionRejects.Load() == uint64(reads-queue)
	}
	for deadline := time.Now().Add(5 * time.Second); !saturated() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if !saturated() {
		t.Errorf("the pool never saturated: queue depth %d, rejects %d", srv.sm.QueueDepth.Load(), srv.sm.AdmissionRejects.Load())
	}
	for _, release := range held {
		release()
	}
	wg.Wait()
	if want := queue + sessions; ok != want || rejects != reads-queue {
		t.Errorf("ok %d, rejected %d; want the %d queued reads and %d inserts through, %d reads turned away",
			ok, rejects, queue, sessions, reads-queue)
	}
	rows, err := db.Query("select count(*) from scratch")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != int64(inserts) {
		t.Errorf("scratch holds %d rows after %d acknowledged inserts", got, inserts)
	}
	waitFor(t, func() bool { return srv.sm.InFlight.Load() == 0 && srv.sm.PoolInUse.Load() == 0 })
}
