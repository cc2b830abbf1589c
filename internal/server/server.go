// Package server is orthoq's server mode: a session layer (per-session
// execution defaults, prepared statements, lightweight read-only
// transactions over pinned snapshots), admission control (global
// concurrency slots, a shared memory pool, and a bounded FIFO queue),
// and an HTTP/JSON wire front end (http.go) over an embedded
// orthoq.DB. See DESIGN.md §13.
package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"orthoq"
	"orthoq/internal/obs"
)

// Config tunes a Server. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// Session holds the server-wide per-session execution defaults; a
	// session's own SessionConfig overrides them field by field.
	Session SessionConfig
	// Admission tunes the global admission controller.
	Admission AdmissionConfig
	// MaxSessions caps concurrently open sessions (0 = default 256).
	MaxSessions int
	// SessionIdleTimeout closes sessions with no activity and no
	// running queries (0 = default 10m; negative = never).
	SessionIdleTimeout time.Duration
	// CursorIdleTimeout closes cursors their client stopped fetching
	// (0 = default 1m; negative = never). Reaping a cursor releases its
	// session slot and admission reservation — the backstop against
	// abandoned-stream resource leaks.
	CursorIdleTimeout time.Duration
	// ReapInterval is the reaper's scan period (0 = default 5s).
	ReapInterval time.Duration
	// QueryLog, when non-nil, receives the engine's JSONL query-log
	// records for every query run through the server (with session=
	// and queued_us labels).
	QueryLog io.Writer
	// DisableResultCache turns the semantic result cache off
	// server-wide (sessions cannot re-enable it). By default server
	// mode enables the cache for every session — wire traffic is where
	// near-duplicate queries concentrate; a session opts out with
	// SessionConfig.ResultCache=false.
	DisableResultCache bool
	// ResultCacheBytes caps the result cache footprint. 0 draws a
	// quarter of the admission memory pool (Admission.PoolBytes) when
	// one is configured, else the engine default (32 MiB). Whatever the
	// cache is granted is subtracted from the admission pool: cached
	// materializations are engine memory too.
	ResultCacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.Session.MaxConcurrent == 0 {
		c.Session.MaxConcurrent = 8
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.SessionIdleTimeout == 0 {
		c.SessionIdleTimeout = 10 * time.Minute
	}
	if c.CursorIdleTimeout == 0 {
		c.CursorIdleTimeout = time.Minute
	}
	if c.ReapInterval == 0 {
		c.ReapInterval = 5 * time.Second
	}
	return c
}

// Server wraps an orthoq.DB with sessions, admission control, and the
// HTTP front end. Create with New, serve its Handler(), Close when
// done. All methods are safe for concurrent use.
type Server struct {
	db  *orthoq.DB
	cfg Config
	adm *admission
	// sm is allocated apart from the Server, which the expvar registry
	// must not keep reachable (see newServer).
	sm *obs.ServerMetrics
	// rcBytes is the result-cache byte cap carved out of the admission
	// pool at New (0 = engine default sizing).
	rcBytes int64

	mu       sync.Mutex
	sessions map[string]*Session
	seq      atomic.Uint64

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// Readiness: a server is ready once its database is open (for
	// NewOpening, after recovery finishes) and not draining. Liveness
	// (/healthz) is independent — a replaying or draining server is
	// alive but should receive no new traffic. openDone closing
	// publishes db and openErr (channel happens-before).
	draining atomic.Bool
	openDone chan struct{}
	openErr  error // written before openDone closes
}

// New creates a server over db and starts its idle reaper. The server
// is immediately ready.
func New(db *orthoq.DB, cfg Config) *Server {
	s := newServer(db, cfg)
	close(s.openDone)
	return s
}

// NewOpening creates a server whose database is still opening — the
// durable-open path, where recovery may spend seconds replaying the
// write-ahead log. The server binds and answers liveness immediately;
// every data-path request (and /readyz) is rejected with ErrNotReady
// until open returns. If open fails, the server stays unready forever,
// reporting the failure — the load balancer never routes to it and the
// operator sees the reason on /readyz.
func NewOpening(open func() (*orthoq.DB, error), cfg Config) *Server {
	s := newServer(nil, cfg)
	go func() {
		db, err := open()
		if err != nil {
			s.openErr = fmt.Errorf("%w: open failed: %v", ErrNotReady, err)
		} else {
			s.db = db
		}
		close(s.openDone)
	}()
	return s
}

// Ready reports whether the server can serve queries: nil when the
// database is open, ErrNotReady (with the reason) while recovery is
// still replaying or after a failed open. Draining does not affect
// Ready — in-flight and straggler requests still complete; only
// /readyz advertises the drain.
func (s *Server) Ready() error {
	select {
	case <-s.openDone:
		return s.openErr
	default:
		return fmt.Errorf("%w: database opening (recovery in progress)", ErrNotReady)
	}
}

// WaitReady blocks until the database open completes and returns its
// outcome (nil immediately for servers created with New).
func (s *Server) WaitReady() error {
	<-s.openDone
	return s.openErr
}

// Drain marks the server draining: /readyz starts failing so load
// balancers stop routing new traffic, while everything already here —
// sessions, cursors, in-flight queries — continues to completion. Call
// before Close for a graceful shutdown.
func (s *Server) Drain() {
	s.draining.Store(true)
}

func newServer(db *orthoq.DB, cfg Config) *Server {
	s := &Server{
		db:       db,
		cfg:      cfg.withDefaults(),
		sessions: make(map[string]*Session),
		closed:   make(chan struct{}),
		openDone: make(chan struct{}),
		sm:       new(obs.ServerMetrics),
	}
	adm := s.cfg.Admission
	if !s.cfg.DisableResultCache {
		s.rcBytes = s.cfg.ResultCacheBytes
		if s.rcBytes == 0 && adm.PoolBytes > 0 {
			s.rcBytes = adm.PoolBytes / 4
		}
		// The cache's bytes come out of the same global pool that bounds
		// query working memory, so enabling the cache never raises the
		// server's total memory ceiling.
		if adm.PoolBytes > 0 && s.rcBytes > 0 {
			if s.rcBytes >= adm.PoolBytes {
				s.rcBytes = adm.PoolBytes / 2
			}
			adm.PoolBytes -= s.rcBytes
		}
	}
	s.adm = newAdmission(adm, s.sm)
	// The closure captures the counters only: capturing s would keep the
	// first Server, its DB and its store alive for the whole process.
	sm := s.sm
	obs.PublishFunc("orthoq_server", func() any { return sm.Snapshot() })
	s.wg.Add(1)
	go s.reapLoop()
	return s
}

// DB returns the embedded engine handle (nil while a NewOpening
// server is still opening or after its open failed).
func (s *Server) DB() *orthoq.DB {
	select {
	case <-s.openDone:
		return s.db
	default:
		return nil
	}
}

// Metrics snapshots the engine counters with the server-mode section
// filled in. While a NewOpening server is still opening (or after its
// open failed) the engine section is zero and only the server-mode
// counters are live.
func (s *Server) Metrics() orthoq.MetricsSnapshot {
	var m orthoq.MetricsSnapshot
	if db := s.DB(); db != nil {
		m = db.Metrics()
	}
	sn := s.sm.Snapshot()
	m.Server = &sn
	return m
}

// Close stops the reaper and closes every session (which closes every
// cursor, releasing all admission reservations). Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.wg.Wait()
		s.mu.Lock()
		open := make([]*Session, 0, len(s.sessions))
		for _, sess := range s.sessions {
			open = append(open, sess)
		}
		s.sessions = make(map[string]*Session)
		s.mu.Unlock()
		for _, sess := range open {
			sess.close()
			s.sm.SessionsClosed.Add(1)
			s.sm.SessionsActive.Add(-1)
		}
	})
}

// CreateSession opens a session with the given overrides (zero fields
// take the server-wide defaults).
func (s *Server) CreateSession(cfg SessionConfig) (*Session, error) {
	select {
	case <-s.closed:
		return nil, ErrServerClosed
	default:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, &AdmissionError{
			Reason:     fmt.Sprintf("session limit %d reached", s.cfg.MaxSessions),
			RetryAfter: s.adm.cfg.RetryAfter,
		}
	}
	sess := &Session{
		id:      fmt.Sprintf("s-%d", s.seq.Add(1)),
		srv:     s,
		cfg:     cfg.merge(s.cfg.Session),
		lastUse: time.Now(),
	}
	s.sessions[sess.id] = sess
	s.sm.SessionsOpened.Add(1)
	s.sm.SessionsActive.Add(1)
	return sess, nil
}

// Session looks a session up by handle.
func (s *Server) Session(id string) (*Session, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: session %s", ErrNotFound, id)
	}
	return sess, nil
}

// CloseSession closes and unregisters a session; all its cursors
// close with it.
func (s *Server) CloseSession(id string) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: session %s", ErrNotFound, id)
	}
	sess.close()
	s.sm.SessionsClosed.Add(1)
	s.sm.SessionsActive.Add(-1)
	return nil
}

// reapLoop periodically closes idle cursors and idle sessions. It is
// the goroutine/cursor-leak backstop: a client that opened a streaming
// cursor and vanished would otherwise pin a session slot, an admission
// reservation, and the stream's execution resources forever.
func (s *Server) reapLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			s.reap(time.Now())
		}
	}
}

// reap closes cursors idle past CursorIdleTimeout and sessions idle
// past SessionIdleTimeout (skipping sessions with running queries,
// open cursors, or an open transaction).
func (s *Server) reap(now time.Time) {
	s.mu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	for _, sess := range sessions {
		if s.cfg.CursorIdleTimeout > 0 {
			sess.mu.Lock()
			stale := make([]*cursor, 0, len(sess.cursors))
			for _, cu := range sess.cursors {
				cu.mu.Lock()
				if !cu.closed && now.Sub(cu.lastUse) > s.cfg.CursorIdleTimeout {
					stale = append(stale, cu)
				}
				cu.mu.Unlock()
			}
			sess.mu.Unlock()
			for _, cu := range stale {
				cu.close(true)
			}
		}
		if s.cfg.SessionIdleTimeout > 0 {
			sess.mu.Lock()
			idle := !sess.closed && sess.inflight == 0 && len(sess.cursors) == 0 &&
				sess.snap == nil && now.Sub(sess.lastUse) > s.cfg.SessionIdleTimeout
			sess.mu.Unlock()
			if idle {
				_ = s.CloseSession(sess.id)
			}
		}
	}
}
