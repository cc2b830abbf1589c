package server

import (
	"bytes"
	"encoding/json"
	"expvar"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"orthoq"
	"orthoq/internal/sql/types"
)

// newMemDB builds a small in-memory database: table t(id int, val
// float) with n rows, analyzed.
func newMemDB(t *testing.T, n int) *orthoq.DB {
	t.Helper()
	db := orthoq.NewMemory()
	if err := db.CreateTable(&orthoq.Table{
		Name: "t",
		Columns: []orthoq.Column{
			{Name: "id", Type: types.Int},
			{Name: "val", Type: types.Float, Nullable: true},
		},
		Key: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Insert("t", orthoq.Row{types.NewInt(int64(i)), types.NewFloat(float64(i) / 2)}); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	return db
}

// testServer bundles a server with its in-process HTTP front end.
type testServer struct {
	srv *Server
	ts  *httptest.Server
}

func newTestServer(t *testing.T, db *orthoq.DB, cfg Config) *testServer {
	t.Helper()
	srv := New(db, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &testServer{srv: srv, ts: ts}
}

func (s *testServer) post(t testing.TB, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.ts.Client().Post(s.ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func (s *testServer) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := s.ts.Client().Get(s.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func (s *testServer) delete(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, s.ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func (s *testServer) newSession(t testing.TB, cfg SessionConfig) string {
	t.Helper()
	resp, data := s.post(t, "/session", cfg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: %d %s", resp.StatusCode, data)
	}
	var out struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out.Session
}

// queryRows runs an inline /query and parses the JSONL body.
func (s *testServer) queryRows(t *testing.T, session, sql string) (cols []string, rows [][]any, trailer map[string]any) {
	t.Helper()
	resp, data := s.post(t, "/query", map[string]any{"session": session, "sql": sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: %d %s", sql, resp.StatusCode, data)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			break
		}
		switch {
		case line["columns"] != nil:
			for _, c := range line["columns"].([]any) {
				cols = append(cols, c.(string))
			}
		case line["row"] != nil:
			rows = append(rows, line["row"].([]any))
		case line["done"] != nil:
			trailer = line
		}
	}
	if trailer == nil {
		t.Fatalf("query %q: no trailer in %s", sql, data)
	}
	return cols, rows, trailer
}

func errClassOf(t *testing.T, data []byte) string {
	t.Helper()
	var e struct {
		Class string `json:"class"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body %s: %v", data, err)
	}
	return e.Class
}

func TestQueryInline(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 10), Config{})
	sid := s.newSession(t, SessionConfig{})
	cols, rows, trailer := s.queryRows(t, sid, "select id, val from t where id < 3")
	if len(cols) != 2 || cols[0] != "id" {
		t.Errorf("columns = %v", cols)
	}
	if len(rows) != 3 {
		t.Errorf("rows = %d, want 3", len(rows))
	}
	if trailer["rows"].(float64) != 3 {
		t.Errorf("trailer rows = %v", trailer["rows"])
	}
}

// TestInlineReplyFraming pins how an inline /query reply leaves the
// server: writeRowsJSONL does not flush, so a small reply is one write
// with a Content-Length, and a large one still streams chunked as the
// response buffer fills — complete, trailer last.
func TestInlineReplyFraming(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 5000), Config{})
	sid := s.newSession(t, SessionConfig{})

	resp, data := s.post(t, "/query", map[string]any{"session": sid, "sql": "select id, val from t where id = 7"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("point read: %d %s", resp.StatusCode, data)
	}
	if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("point read (%d bytes): Content-Length %d, Transfer-Encoding %v; want one sized write",
			len(data), resp.ContentLength, resp.TransferEncoding)
	}

	resp, data = s.post(t, "/query", map[string]any{"session": sid, "sql": "select id, val from t"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full read: %d", resp.StatusCode)
	}
	if resp.ContentLength != -1 || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Errorf("full read (%d bytes): Content-Length %d, Transfer-Encoding %v; want chunked",
			len(data), resp.ContentLength, resp.TransferEncoding)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 5002 || !bytes.Contains(lines[len(lines)-1], []byte(`"done"`)) {
		t.Errorf("full read: %d lines, last %s; want header + 5000 rows + trailer", len(lines), lines[len(lines)-1])
	}
}

// TestNonFiniteFloatsOverWire: a row holding ±Inf or NaN reaches the
// client, inline and through a cursor, as the strings "Infinity",
// "-Infinity" and "NaN" — JSON has no number for them — and an insert
// of those strings into a Float column stores the values they name. A
// finite float is the JSON number it always was.
func TestNonFiniteFloatsOverWire(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 10), Config{})
	sid := s.newSession(t, SessionConfig{})
	inf := "val * 1" + strings.Repeat("0", 308) + ".0 * 10.0" // +Inf for every val > 0
	sql := "select id, " + inf + " as x, " + inf + " - " + inf + " as y, 0 - " + inf + " as z from t where id < 4"
	want := []any{"Infinity", "NaN", "-Infinity"}
	check := func(label string, rows [][]any) {
		t.Helper()
		if len(rows) != 4 {
			t.Fatalf("%s: %d rows, want 4: %v", label, len(rows), rows)
		}
		for _, r := range rows {
			if r[0].(float64) == 0 {
				continue // val 0: every column is 0
			}
			for i, w := range want {
				if r[i+1] != w {
					t.Errorf("%s: row %v column %d = %v, want %v", label, r[0], i+1, r[i+1], w)
				}
			}
		}
	}
	_, rows, trailer := s.queryRows(t, sid, sql)
	if trailer["rows"].(float64) != 4 {
		t.Errorf("inline trailer rows = %v, want 4", trailer["rows"])
	}
	check("inline", rows)

	resp, data := s.post(t, "/query", map[string]any{"session": sid, "sql": sql, "cursor": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open cursor: %d %s", resp.StatusCode, data)
	}
	var opened struct {
		Cursor string `json:"cursor"`
	}
	json.Unmarshal(data, &opened)
	resp, data = s.post(t, "/cursor/"+opened.Cursor, map[string]any{"session": sid, "limit": 16})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch: %d %s", resp.StatusCode, data)
	}
	var fetched struct {
		Rows [][]any `json:"rows"`
	}
	json.Unmarshal(data, &fetched)
	check("cursor", fetched.Rows)

	resp, data = s.post(t, "/exec", map[string]any{"session": sid, "insert": map[string]any{"table": "t",
		"rows": [][]any{{100, "Infinity"}, {101, "NaN"}, {102, "-Infinity"}}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, data)
	}
	_, rows, _ = s.queryRows(t, sid, "select id, val from t where id >= 100 order by id")
	if len(rows) != 3 {
		t.Fatalf("read back %d rows, want 3", len(rows))
	}
	for i, w := range want {
		if rows[i][1] != w {
			t.Errorf("read back row %v = %v, want %v", rows[i][0], rows[i][1], w)
		}
	}

	resp, data = s.post(t, "/query", map[string]any{"session": sid, "sql": "select id, val from t where id = 3"})
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`{"row":[3,1.5]}`)) {
		t.Errorf("a finite float: %d %s, want the row line {\"row\":[3,1.5]}", resp.StatusCode, data)
	}
}

func TestQuerySessionless(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 5), Config{})
	_, rows, _ := s.queryRows(t, "", "select count(*) as n from t")
	if len(rows) != 1 || rows[0][0].(float64) != 5 {
		t.Errorf("sessionless count = %v", rows)
	}
}

func TestPrepareAndRun(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 10), Config{})
	sid := s.newSession(t, SessionConfig{})
	resp, data := s.post(t, "/prepare", map[string]string{"session": sid, "sql": "select count(*) as n from t"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %s", resp.StatusCode, data)
	}
	var out struct {
		Stmt string `json:"stmt"`
	}
	json.Unmarshal(data, &out)
	resp, data = s.post(t, "/query", map[string]string{"session": sid, "stmt": out.Stmt})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run stmt: %d %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte(`"row":[10]`)) {
		t.Errorf("stmt result missing count row: %s", data)
	}
}

func TestTxnSnapshotIsolation(t *testing.T) {
	db := newMemDB(t, 10)
	s := newTestServer(t, db, Config{})
	sid := s.newSession(t, SessionConfig{})
	if resp, data := s.post(t, "/session/"+sid+"/begin", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("begin: %d %s", resp.StatusCode, data)
	}

	// A write lands while the transaction is open...
	if err := db.Insert("t", orthoq.Row{types.NewInt(100), types.NewFloat(1)}); err != nil {
		t.Fatal(err)
	}
	// ...but the transaction still reads its snapshot.
	_, rows, _ := s.queryRows(t, sid, "select count(*) as n from t")
	if rows[0][0].(float64) != 10 {
		t.Errorf("in-txn count = %v, want 10 (snapshot)", rows[0][0])
	}
	// Sessionless readers see the live data.
	_, rows, _ = s.queryRows(t, "", "select count(*) as n from t")
	if rows[0][0].(float64) != 11 {
		t.Errorf("live count = %v, want 11", rows[0][0])
	}

	if resp, data := s.post(t, "/session/"+sid+"/commit", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: %d %s", resp.StatusCode, data)
	}
	_, rows, _ = s.queryRows(t, sid, "select count(*) as n from t")
	if rows[0][0].(float64) != 11 {
		t.Errorf("post-commit count = %v, want 11", rows[0][0])
	}
}

func TestTxnWriteRejected(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 5), Config{})
	sid := s.newSession(t, SessionConfig{})
	s.post(t, "/session/"+sid+"/begin", nil)
	resp, data := s.post(t, "/exec", map[string]any{
		"session": sid,
		"insert":  map[string]any{"table": "t", "rows": [][]any{{99, 1.5}}},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("in-txn write: %d %s, want 409", resp.StatusCode, data)
	}
	if got := errClassOf(t, data); got != "txn_write" {
		t.Errorf("class = %q, want txn_write", got)
	}
	// Rollback unblocks writes.
	s.post(t, "/session/"+sid+"/rollback", nil)
	resp, data = s.post(t, "/exec", map[string]any{
		"session": sid,
		"insert":  map[string]any{"table": "t", "rows": [][]any{{99, 1.5}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rollback write: %d %s", resp.StatusCode, data)
	}
}

func TestAdmissionWireMapping(t *testing.T) {
	// Saturate admission directly, then watch a wire query bounce with
	// 503 + Retry-After + class "admission".
	s := newTestServer(t, newMemDB(t, 5), Config{
		Admission: AdmissionConfig{MaxConcurrent: 1, QueueDepth: -1, RetryAfter: 2 * time.Second},
	})
	rel, _, err := s.srv.adm.Admit(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := s.post(t, "/query", map[string]string{"sql": "select count(*) as n from t"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated query: %d %s, want 503", resp.StatusCode, data)
	}
	if got := errClassOf(t, data); got != "admission" {
		t.Errorf("class = %q, want admission", got)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	rel()
	if resp, data := s.post(t, "/query", map[string]string{"sql": "select count(*) as n from t"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release query: %d %s", resp.StatusCode, data)
	}
	if got := s.srv.sm.AdmissionRejects.Load(); got != 1 {
		t.Errorf("AdmissionRejects = %d, want 1", got)
	}
}

func TestSessionCapWireMapping(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 5), Config{})
	sid := s.newSession(t, SessionConfig{MaxConcurrent: 1})
	sess, err := s.srv.Session(sid)
	if err != nil {
		t.Fatal(err)
	}
	slot, err := sess.acquire()
	if err != nil {
		t.Fatal(err)
	}
	resp, data := s.post(t, "/query", map[string]string{"session": sid, "sql": "select count(*) as n from t"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("capped query: %d %s, want 429", resp.StatusCode, data)
	}
	if got := errClassOf(t, data); got != "session_cap" {
		t.Errorf("class = %q, want session_cap", got)
	}
	slot()
	if resp, data := s.post(t, "/query", map[string]string{"session": sid, "sql": "select count(*) as n from t"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release query: %d %s", resp.StatusCode, data)
	}
	if got := s.srv.sm.SessionCapRejects.Load(); got != 1 {
		t.Errorf("SessionCapRejects = %d, want 1", got)
	}
}

func TestNotFoundMapping(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 5), Config{})
	for _, tc := range []struct {
		name string
		do   func() (*http.Response, []byte)
	}{
		{"unknown session", func() (*http.Response, []byte) {
			return s.post(t, "/query", map[string]string{"session": "s-999", "sql": "select 1"})
		}},
		{"unknown stmt", func() (*http.Response, []byte) {
			sid := s.newSession(t, SessionConfig{})
			return s.post(t, "/query", map[string]string{"session": sid, "stmt": "stmt-999"})
		}},
		{"unknown cursor", func() (*http.Response, []byte) {
			sid := s.newSession(t, SessionConfig{})
			return s.post(t, "/cursor/cur-999", map[string]string{"session": sid})
		}},
	} {
		resp, data := tc.do()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: %d %s, want 404", tc.name, resp.StatusCode, data)
		} else if got := errClassOf(t, data); got != "not_found" {
			t.Errorf("%s: class = %q, want not_found", tc.name, got)
		}
	}
}

func TestRowBudgetWireMapping(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 20), Config{})
	sid := s.newSession(t, SessionConfig{RowBudget: 2})
	resp, data := s.post(t, "/query", map[string]string{"session": sid, "sql": "select id from t"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("row-budget query: %d %s, want 422", resp.StatusCode, data)
	}
	if got := errClassOf(t, data); got != "row_budget" {
		t.Errorf("class = %q, want row_budget", got)
	}
}

func TestPoolReleasedOnQueryError(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 5), Config{
		Admission: AdmissionConfig{MaxConcurrent: 4, PoolBytes: 1 << 20, DefaultReserve: 1 << 18},
	})
	resp, _ := s.post(t, "/query", map[string]string{"sql": "select bogus syntax from nowhere ..."})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("bogus query succeeded")
	}
	if got := s.srv.sm.InFlight.Load(); got != 0 {
		t.Errorf("InFlight after error = %d, want 0", got)
	}
	if got := s.srv.sm.PoolInUse.Load(); got != 0 {
		t.Errorf("PoolInUse after error = %d, want 0", got)
	}
}

func TestCursorFetchAndClose(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 50), Config{})
	sid := s.newSession(t, SessionConfig{})
	resp, data := s.post(t, "/query", map[string]any{"session": sid, "sql": "select id from t", "cursor": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open cursor: %d %s", resp.StatusCode, data)
	}
	var opened struct {
		Cursor  string   `json:"cursor"`
		Columns []string `json:"columns"`
	}
	json.Unmarshal(data, &opened)
	if opened.Cursor == "" || len(opened.Columns) != 1 {
		t.Fatalf("cursor response: %s", data)
	}
	if got := s.srv.sm.CursorsOpen.Load(); got != 1 {
		t.Errorf("CursorsOpen = %d, want 1", got)
	}
	// The cursor holds its admission reservation between fetches.
	if got := s.srv.sm.InFlight.Load(); got != 1 {
		t.Errorf("InFlight with open cursor = %d, want 1", got)
	}

	total := 0
	done := false
	for i := 0; i < 20 && !done; i++ {
		resp, data = s.post(t, "/cursor/"+opened.Cursor, map[string]any{"session": sid, "limit": 16})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch: %d %s", resp.StatusCode, data)
		}
		var out struct {
			Rows [][]any `json:"rows"`
			Done bool    `json:"done"`
		}
		json.Unmarshal(data, &out)
		total += len(out.Rows)
		done = out.Done
	}
	if !done || total != 50 {
		t.Fatalf("fetched %d rows, done=%v, want 50/true", total, done)
	}
	// Exhaustion closed the cursor and returned all resources.
	if got := s.srv.sm.CursorsOpen.Load(); got != 0 {
		t.Errorf("CursorsOpen after exhaustion = %d, want 0", got)
	}
	if got := s.srv.sm.InFlight.Load(); got != 0 {
		t.Errorf("InFlight after exhaustion = %d, want 0", got)
	}
	if got := s.srv.sm.PoolInUse.Load(); got != 0 {
		t.Errorf("PoolInUse after exhaustion = %d, want 0", got)
	}
}

func TestCursorReaper(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 50), Config{})
	sid := s.newSession(t, SessionConfig{})
	resp, data := s.post(t, "/query", map[string]any{"session": sid, "sql": "select id from t", "cursor": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open cursor: %d %s", resp.StatusCode, data)
	}
	if got := s.srv.sm.CursorsOpen.Load(); got != 1 {
		t.Fatalf("CursorsOpen = %d, want 1", got)
	}
	// Drive the reaper deterministically: pretend an hour passed.
	s.srv.reap(time.Now().Add(time.Hour))
	if got := s.srv.sm.CursorsOpen.Load(); got != 0 {
		t.Errorf("CursorsOpen after reap = %d, want 0", got)
	}
	if got := s.srv.sm.CursorsReaped.Load(); got != 1 {
		t.Errorf("CursorsReaped = %d, want 1", got)
	}
	if got := s.srv.sm.InFlight.Load(); got != 0 {
		t.Errorf("InFlight after reap = %d, want 0", got)
	}
	if got := s.srv.sm.PoolInUse.Load(); got != 0 {
		t.Errorf("PoolInUse after reap = %d, want 0", got)
	}
	// The reaper also closed the now-idle session on the same sweep or
	// will on the next; either way a fresh query session still works.
	sid2 := s.newSession(t, SessionConfig{})
	if _, rows, _ := s.queryRows(t, sid2, "select count(*) as n from t"); rows[0][0].(float64) != 50 {
		t.Errorf("post-reap query broken: %v", rows)
	}
}

func TestSessionCloseClosesCursors(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 50), Config{})
	sid := s.newSession(t, SessionConfig{})
	resp, data := s.post(t, "/query", map[string]any{"session": sid, "sql": "select id from t", "cursor": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open cursor: %d %s", resp.StatusCode, data)
	}
	if resp, data := s.delete(t, "/session/"+sid); resp.StatusCode != http.StatusOK {
		t.Fatalf("close session: %d %s", resp.StatusCode, data)
	}
	if got := s.srv.sm.CursorsOpen.Load(); got != 0 {
		t.Errorf("CursorsOpen after session close = %d, want 0", got)
	}
	if got := s.srv.sm.InFlight.Load(); got != 0 {
		t.Errorf("InFlight after session close = %d, want 0", got)
	}
	if got := s.srv.sm.PoolInUse.Load(); got != 0 {
		t.Errorf("PoolInUse after session close = %d, want 0", got)
	}
}

func TestExecLifecycleOverWire(t *testing.T) {
	s := newTestServer(t, orthoq.NewMemory(), Config{})
	resp, data := s.post(t, "/exec", map[string]any{
		"create_table": map[string]any{
			"name": "events",
			"columns": []map[string]any{
				{"name": "id", "type": "int"},
				{"name": "day", "type": "date"},
				{"name": "tag", "type": "string", "nullable": true},
			},
			"key": []int{0},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create_table: %d %s", resp.StatusCode, data)
	}
	resp, data = s.post(t, "/exec", map[string]any{
		"insert": map[string]any{
			"table": "events",
			"rows": [][]any{
				{1, "2026-01-02", "a"},
				{2, "2026-01-03", nil},
			},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, data)
	}
	if resp, data = s.post(t, "/exec", map[string]any{"analyze": true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, data)
	}
	_, rows, _ := s.queryRows(t, "", "select id, day, tag from events where id = 2")
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][1] != "2026-01-03" || rows[0][2] != nil {
		t.Errorf("datum round-trip: %v", rows[0])
	}

	// Bad datum type → 400.
	resp, data = s.post(t, "/exec", map[string]any{
		"insert": map[string]any{"table": "events", "rows": [][]any{{"oops", "2026-01-01", "x"}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad datum: %d %s, want 400", resp.StatusCode, data)
	}
}

func TestMetricsAndHealthEndpoints(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 5), Config{})
	sid := s.newSession(t, SessionConfig{})
	s.queryRows(t, sid, "select count(*) as n from t")

	resp, data := s.get(t, "/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("ok")) {
		t.Errorf("healthz: %d %s", resp.StatusCode, data)
	}
	resp, data = s.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var m struct {
		Queries uint64 `json:"queries"`
		Server  *struct {
			SessionsOpened  uint64 `json:"sessions_opened"`
			QueriesAdmitted uint64 `json:"queries_admitted"`
		} `json:"server"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Server == nil || m.Server.SessionsOpened < 1 || m.Server.QueriesAdmitted < 1 {
		t.Errorf("server metrics section: %s", data)
	}
	if m.Queries < 1 {
		t.Errorf("engine queries = %d, want >= 1", m.Queries)
	}

	resp, data = s.get(t, "/schema")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"name":"t"`)) {
		t.Errorf("schema: %d %s", resp.StatusCode, data)
	}
}

func TestQueryLogSessionLabels(t *testing.T) {
	var log bytes.Buffer
	db := newMemDB(t, 5)
	s := newTestServer(t, db, Config{QueryLog: &log})
	sid := s.newSession(t, SessionConfig{})
	s.queryRows(t, sid, "select count(*) as n from t")
	found := false
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var rec struct {
			Session string `json:"session"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Session == sid {
			found = true
		}
	}
	if !found {
		t.Errorf("no query-log record labeled session=%s in:\n%s", sid, log.String())
	}
}

func TestQueuedQueryRunsAfterRelease(t *testing.T) {
	// A query that arrives at saturation queues (not rejects) while the
	// queue has room, and completes once the slot frees.
	s := newTestServer(t, newMemDB(t, 5), Config{
		Admission: AdmissionConfig{MaxConcurrent: 1, QueueDepth: 4, QueueTimeout: 5 * time.Second},
	})
	rel, _, err := s.srv.adm.Admit(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		data   []byte
	}
	resc := make(chan result, 1)
	go func() {
		resp, data := s.post(t, "/query", map[string]string{"sql": "select count(*) as n from t"})
		resc <- result{resp.StatusCode, data}
	}()
	waitFor(t, func() bool { return s.srv.sm.QueueDepth.Load() == 1 })
	rel()
	r := <-resc
	if r.status != http.StatusOK {
		t.Fatalf("queued query: %d %s", r.status, r.data)
	}
	// The trailer reports the admission wait.
	if !bytes.Contains(r.data, []byte("queued_us")) {
		t.Errorf("trailer lacks queued_us: %s", r.data)
	}
	if got := s.srv.sm.QueriesQueued.Load(); got != 1 {
		t.Errorf("QueriesQueued = %d, want 1", got)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	db := newMemDB(t, 5)
	srv := New(db, Config{})
	sid, err := srv.CreateSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_ = sid
	srv.Close()
	srv.Close()
	if _, err := srv.CreateSession(SessionConfig{}); err == nil {
		t.Error("CreateSession after Close succeeded")
	}
	if got := srv.sm.SessionsActive.Load(); got != 0 {
		t.Errorf("SessionsActive after Close = %d, want 0", got)
	}
}

func TestSessionConfigDefaultsMerge(t *testing.T) {
	s := newTestServer(t, newMemDB(t, 5), Config{
		Session: SessionConfig{TimeoutMS: 5000, MaxConcurrent: 3},
	})
	resp, data := s.post(t, "/session", SessionConfig{MemBudget: 1 << 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %s", resp.StatusCode, data)
	}
	var out sessionResponse
	json.Unmarshal(data, &out)
	if out.Config.TimeoutMS != 5000 || out.Config.MaxConcurrent != 3 || out.Config.MemBudget != 1<<20 {
		t.Errorf("merged config = %+v", out.Config)
	}
}

// TestDroppedServerIsCollected: a Server and its DB are garbage once
// closed and dropped, although New published the server's counters,
// and Open the engine's, in the process-wide expvar registry. Only the
// first of each is published, so when another test got there first the
// test reruns itself alone in a fresh process.
func TestDroppedServerIsCollected(t *testing.T) {
	if expvar.Get("orthoq") != nil || expvar.Get("orthoq_server") != nil {
		alone := "^" + t.Name() + "$"
		if flag.Lookup("test.run").Value.String() == alone {
			t.Fatal("the registry was published before this test, although it runs alone")
		}
		out, err := exec.Command(os.Args[0], "-test.run="+alone, "-test.v").CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: "+t.Name())) {
			t.Fatalf("%s alone: %v\n%s", t.Name(), err, out)
		}
		return
	}
	dbGone, srvGone := make(chan struct{}), make(chan struct{})
	func() {
		db := newMemDB(t, 100)
		srv := New(db, Config{})
		s := &testServer{srv: srv, ts: httptest.NewServer(srv.Handler())}
		s.queryRows(t, s.newSession(t, SessionConfig{}), "select id, val from t where id < 3")
		s.ts.Close()
		srv.Close()
		runtime.AddCleanup(db, func(ch chan struct{}) { close(ch) }, dbGone)
		runtime.AddCleanup(srv, func(ch chan struct{}) { close(ch) }, srvGone)
	}()
	if expvar.Get("orthoq_server") == nil {
		t.Fatal(`expvar.Get("orthoq_server") = nil; New did not publish the server counters`)
	}
	for _, c := range []struct {
		what string
		gone chan struct{}
	}{{"the dropped Server", srvGone}, {"its DB", dbGone}} {
		collected := false
		for i := 0; i < 10 && !collected; i++ {
			runtime.GC()
			select {
			case <-c.gone:
				collected = true
			case <-time.After(20 * time.Millisecond):
			}
		}
		if !collected {
			t.Errorf("%s is still reachable after ten forced collections", c.what)
		}
	}
}
