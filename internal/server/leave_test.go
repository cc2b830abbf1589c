package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// TestWireClientLeavesReleases: a client that goes away — cancelling an
// inline query mid-execution, a request queued behind another under
// MaxConcurrent 1, a cursor dropped with its session after one fetch,
// or a reader that stalls on a large inline response and then hangs
// up — leaves nothing held. Within a deadline the in_flight,
// queue_depth, pool_in_use and cursors_open gauges return to 0 and the
// goroutine count to its baseline, and the session's slot admits the
// next query at once (a dropped session's slot admits a new session).
func TestWireClientLeavesReleases(t *testing.T) {
	// A self-join with no equality key runs as nested loops over 3 000²
	// pairs: long enough to be in flight when the client leaves, and it
	// polls its context as it charges pairs.
	const slow = "select count(*) as n from t a, t b where a.val < b.val"
	const quick = "select count(*) as n from t"
	db := newMemDB(t, 3000)
	newServer := func(t *testing.T) *testServer {
		return newTestServer(t, db, Config{Admission: AdmissionConfig{
			MaxConcurrent: 1, QueueDepth: 4, QueueTimeout: time.Minute,
			PoolBytes: 64 << 20, DefaultReserve: 1 << 20,
		}})
	}
	// send posts sql in the session on its own context; done closes when
	// the client call returns.
	send := func(t *testing.T, s *testServer, sid, sql string) (cancel func(), done chan struct{}) {
		ctx, cancel := context.WithCancel(context.Background())
		raw, _ := json.Marshal(map[string]string{"session": sid, "sql": sql})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/query", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		done = make(chan struct{})
		go func() {
			defer close(done)
			if resp, err := s.ts.Client().Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		return cancel, done
	}
	baseline := func(s *testServer) int {
		s.ts.Client().CloseIdleConnections()
		time.Sleep(20 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	released := func(t *testing.T, s *testServer, base int, sids ...string) {
		t.Helper()
		sm := s.srv.sm
		deadline := time.Now().Add(10 * time.Second)
		for {
			s.ts.Client().CloseIdleConnections()
			in, q, pool, g := sm.InFlight.Load(), sm.QueueDepth.Load(), sm.PoolInUse.Load(), runtime.NumGoroutine()
			cur := sm.CursorsOpen.Load()
			if in == 0 && q == 0 && pool == 0 && cur == 0 && g <= base {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("after the client left: in_flight=%d queue_depth=%d pool_in_use=%d cursors_open=%d goroutines=%d (baseline %d)",
					in, q, pool, cur, g, base)
			}
			time.Sleep(5 * time.Millisecond)
		}
		for _, sid := range sids {
			resp, data := s.post(t, "/query", map[string]string{"session": sid, "sql": quick})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("next query in session %s: %d %s", sid, resp.StatusCode, data)
			}
		}
	}

	t.Run("inline query cancelled mid-execution", func(t *testing.T) {
		s := newServer(t)
		sid := s.newSession(t, SessionConfig{MaxConcurrent: 1})
		base := baseline(s)
		cancel, done := send(t, s, sid, slow)
		waitFor(t, func() bool { return s.srv.sm.InFlight.Load() == 1 })
		time.Sleep(50 * time.Millisecond) // into execution
		if s.srv.sm.InFlight.Load() != 1 {
			t.Fatal("the slow query finished before the client left; make it slower")
		}
		cancel()
		<-done
		released(t, s, base, sid)
	})

	t.Run("queued request cancelled", func(t *testing.T) {
		s := newServer(t)
		running := s.newSession(t, SessionConfig{MaxConcurrent: 1})
		queued := s.newSession(t, SessionConfig{MaxConcurrent: 1})
		base := baseline(s)
		cancelRunning, doneRunning := send(t, s, running, slow)
		waitFor(t, func() bool { return s.srv.sm.InFlight.Load() == 1 })
		cancelQueued, doneQueued := send(t, s, queued, quick)
		waitFor(t, func() bool { return s.srv.sm.QueueDepth.Load() == 1 })
		cancelQueued()
		<-doneQueued
		waitFor(t, func() bool { return s.srv.sm.QueueDepth.Load() == 0 })
		if s.srv.sm.InFlight.Load() != 1 {
			t.Fatal("the running query finished before the queued client left; make it slower")
		}
		cancelRunning()
		<-doneRunning
		released(t, s, base, running, queued)
	})

	t.Run("cursor abandoned mid-stream", func(t *testing.T) {
		s := newTestServer(t, db, Config{MaxSessions: 1, Admission: AdmissionConfig{
			MaxConcurrent: 1, QueueDepth: 4, QueueTimeout: time.Minute,
			PoolBytes: 64 << 20, DefaultReserve: 1 << 20,
		}})
		sid := s.newSession(t, SessionConfig{MaxConcurrent: 1})
		base := baseline(s)
		resp, data := s.post(t, "/query", map[string]any{"session": sid, "sql": "select id, val from t", "cursor": true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("open cursor: %d %s", resp.StatusCode, data)
		}
		var opened struct {
			Cursor string `json:"cursor"`
		}
		if err := json.Unmarshal(data, &opened); err != nil || opened.Cursor == "" {
			t.Fatalf("cursor response: %s", data)
		}
		resp, data = s.post(t, "/cursor/"+opened.Cursor, map[string]any{"session": sid, "limit": 16})
		var page struct {
			Rows [][]any `json:"rows"`
			Done bool    `json:"done"`
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &page) != nil || len(page.Rows) != 16 || page.Done {
			t.Fatalf("first fetch: %d %s", resp.StatusCode, data)
		}
		// The client drops its session; the cursor is never closed.
		if resp, data := s.delete(t, "/session/"+sid); resp.StatusCode != http.StatusOK {
			t.Fatalf("drop session: %d %s", resp.StatusCode, data)
		}
		released(t, s, base)
		if got := s.srv.sm.SessionsActive.Load(); got != 0 {
			t.Fatalf("sessions_active = %d after the session was dropped", got)
		}
		// MaxSessions 1: the dropped session's slot takes a new one.
		released(t, s, base, s.newSession(t, SessionConfig{MaxConcurrent: 1}))
	})

	t.Run("slow reader of an inline response", func(t *testing.T) {
		s := newServer(t)
		sid := s.newSession(t, SessionConfig{MaxConcurrent: 1})
		base := baseline(s)
		// About 20 MB of JSON lines: far more than the socket buffers
		// hold, so the server's writes wait on the reader.
		const big = "select a.id, a.val, b.id as bid from t a, t b where b.id < 150"
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		raw, _ := json.Marshal(map[string]string{"session": sid, "sql": big})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/query", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4<<10)
		for i := 0; i < 10; i++ {
			if _, err := io.ReadFull(resp.Body, buf); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if s.srv.sm.InFlight.Load() != 1 {
			t.Fatal("the response was written before the reader stalled; make it larger")
		}
		// The reader hangs up with most of the response unread.
		cancel()
		resp.Body.Close()
		released(t, s, base, sid)
	})
}
