package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"

	"orthoq"
)

// BenchmarkWirePointRead is one session's point read over HTTP, served
// from the result cache after the first round of keys: request
// decoding, session and admission, the plan cache's fingerprint, the
// result-cache hit and the JSON-lines reply, plus the client's half of
// the round trip. Its B/op and allocs/op are the read path's share of
// the garbage collector's work in perfbench's wire workloads.
func BenchmarkWirePointRead(b *testing.B) {
	db, err := orthoq.OpenTPCH(0.002, 1)
	if err != nil {
		b.Fatal(err)
	}
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	s := &testServer{srv: srv, ts: ts}
	sid := s.newSession(b, SessionConfig{})
	bodies := make([][]byte, 50)
	for i := range bodies {
		if bodies[i], err = json.Marshal(queryRequest{Session: sid,
			SQL: fmt.Sprintf("select c_name from customer where c_custkey = %d", i+1)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}
