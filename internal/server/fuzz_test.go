package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzPaths are the endpoints that decode a JSON request body.
var fuzzPaths = []string{"/session", "/prepare", "/query", "/exec", "/cursor/cur-1"}

// FuzzRequestBodies: the JSON request bodies are the byte surface the
// wire decodes. Arbitrary bytes POSTed to any endpoint that reads one —
// session create, prepare, query, exec, cursor fetch — must get a JSON
// reply (a value, or JSON lines for an inline query) with a 2xx or 4xx
// status: never a 5xx, a panic or a hang. Each input runs on a fresh
// server over a three-row table, with a live session s-1 holding an
// open cursor cur-1.
func FuzzRequestBodies(f *testing.F) {
	for _, seed := range []struct {
		path int
		body string
	}{
		{0, `{}`},
		{0, `{"timeout_ms":5000,"max_concurrent":3,"mem_budget":1048576,"result_cache":false}`},
		{1, `{"session":"s-1","sql":"select count(*) as n from t"}`},
		{2, `{"session":"s-1","sql":"select id, val from t where id < 3"}`},
		{2, `{"session":"s-1","sql":"select id from t","cursor":true}`},
		{2, `{"session":"s-1","stmt":"stmt-2"}`},
		{2, `{"sql":"select count(*) as n from t"}`},
		{3, `{"session":"s-1","insert":{"table":"t","rows":[[99,1.5],[100,null]]}}`},
		{3, `{"create_table":{"name":"events","columns":[{"name":"id","type":"int"},{"name":"day","type":"date"},` +
			`{"name":"tag","type":"string","nullable":true}],"key":[0]}}`},
		{3, `{"analyze":true}`},
		{4, `{"session":"s-1","limit":16}`},
	} {
		f.Add(uint8(seed.path), []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		srv := New(newMemDB(t, 3), Config{})
		defer srv.Close()
		h := srv.Handler()
		if status, reply := serve(t, h, "/session", []byte(`{}`)); status != http.StatusOK {
			t.Fatalf("session: %d %s", status, reply)
		}
		if status, reply := serve(t, h, "/query", []byte(`{"session":"s-1","sql":"select id from t","cursor":true}`)); status != http.StatusOK {
			t.Fatalf("cursor: %d %s", status, reply)
		}
		target := fuzzPaths[int(path)%len(fuzzPaths)]
		status, reply := serve(t, h, target, body)
		if status < 200 || status >= 500 || (status >= 300 && status < 400) {
			t.Fatalf("POST %s %q: status %d %s", target, body, status, reply)
		}
		dec := json.NewDecoder(bytes.NewReader(reply))
		for n := 0; ; n++ {
			var v any
			if err := dec.Decode(&v); err == io.EOF && n > 0 {
				break
			} else if err != nil {
				t.Fatalf("POST %s %q: status %d, reply is not JSON (%v): %s", target, body, status, err, reply)
			}
		}
	})
}

// serve POSTs body to path through h and returns the reply; a handler
// that runs for ten seconds is a hang.
func serve(t *testing.T, h http.Handler, path string, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("POST %s %q: no reply after 10s", path, body)
	}
	return rec.Code, rec.Body.Bytes()
}
