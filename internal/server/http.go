package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"orthoq"
	"orthoq/internal/sql/types"
)

// statusClientClosedRequest is the de-facto status (nginx's 499) for
// "the client disconnected before the response was ready".
const statusClientClosedRequest = 499

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error        string `json:"error"`
	Class        string `json:"class"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// classify maps an error onto its HTTP status and taxonomy class.
// Admission rejections additionally carry a Retry-After hint.
func classify(err error) (status int, class string, retryAfter time.Duration) {
	var adm *AdmissionError
	switch {
	case errors.As(err, &adm):
		return http.StatusServiceUnavailable, "admission", adm.RetryAfter
	case errors.Is(err, ErrAdmission):
		return http.StatusServiceUnavailable, "admission", 0
	case errors.Is(err, ErrSessionCap):
		return http.StatusTooManyRequests, "session_cap", 0
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not_found", 0
	case errors.Is(err, ErrTxnWrite):
		return http.StatusConflict, "txn_write", 0
	case errors.Is(err, ErrServerClosed):
		return http.StatusServiceUnavailable, "closed", 0
	case errors.Is(err, ErrNotReady):
		return http.StatusServiceUnavailable, "not_ready", 0
	case errors.Is(err, orthoq.ErrTimeout):
		return http.StatusGatewayTimeout, "timeout", 0
	case errors.Is(err, orthoq.ErrCanceled):
		return statusClientClosedRequest, "canceled", 0
	case errors.Is(err, orthoq.ErrRowBudget):
		return http.StatusUnprocessableEntity, "row_budget", 0
	case errors.Is(err, orthoq.ErrMemBudget):
		return http.StatusUnprocessableEntity, "mem_budget", 0
	case errors.Is(err, orthoq.ErrInternal):
		return http.StatusInternalServerError, "internal", 0
	default:
		return http.StatusBadRequest, "invalid", 0
	}
}

// writeError sends the classified error as JSON.
func writeError(w http.ResponseWriter, err error) {
	status, class, retry := classify(err)
	body := errorBody{Error: err.Error(), Class: class}
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((retry+time.Second-1)/time.Second), 10))
		body.RetryAfterMS = retry.Milliseconds()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeJSON sends v with status 200.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decodeBody decodes the request body into v with json.Number
// preserved (so int64 values round-trip exactly).
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 16<<20))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// datumJSON renders a datum as its natural JSON value: null, bool,
// number, or string (dates as "2006-01-02"). JSON has no number for a
// non-finite float, so ±Inf and NaN are the strings "Infinity",
// "-Infinity" and "NaN", which datumFromJSON reads back.
func datumJSON(d types.Datum) any {
	if d.IsNull() {
		return nil
	}
	switch d.Kind() {
	case types.Bool:
		return d.Bool()
	case types.Int:
		return d.Int()
	case types.Float:
		if f := d.Float(); f-f != 0 { // ±Inf or NaN: FormatFloat spells them +Inf, -Inf, NaN
			return strings.TrimPrefix(strings.Replace(strconv.FormatFloat(f, 'g', -1, 64), "Inf", "Infinity", 1), "+")
		}
		return d.Float()
	case types.String:
		return d.Str()
	case types.Date:
		return d.String()
	default:
		return d.String()
	}
}

// datumFromJSON converts a decoded JSON value to a datum of the given
// column kind.
func datumFromJSON(v any, kind types.Kind) (types.Datum, error) {
	if v == nil {
		return types.Null(kind), nil
	}
	switch kind {
	case types.Bool:
		b, ok := v.(bool)
		if !ok {
			return types.Datum{}, fmt.Errorf("want bool, got %T", v)
		}
		return types.NewBool(b), nil
	case types.Int:
		n, ok := v.(json.Number)
		if !ok {
			return types.Datum{}, fmt.Errorf("want number, got %T", v)
		}
		i, err := n.Int64()
		if err != nil {
			return types.Datum{}, fmt.Errorf("bad int %q", n.String())
		}
		return types.NewInt(i), nil
	case types.Float:
		if s, ok := v.(string); ok && (s == "Infinity" || s == "-Infinity" || s == "NaN") {
			f, _ := strconv.ParseFloat(s, 64)
			return types.NewFloat(f), nil
		}
		n, ok := v.(json.Number)
		if !ok {
			return types.Datum{}, fmt.Errorf("want number, got %T", v)
		}
		f, err := n.Float64()
		if err != nil {
			return types.Datum{}, fmt.Errorf("bad float %q", n.String())
		}
		return types.NewFloat(f), nil
	case types.String:
		s, ok := v.(string)
		if !ok {
			return types.Datum{}, fmt.Errorf("want string, got %T", v)
		}
		return types.NewString(s), nil
	case types.Date:
		s, ok := v.(string)
		if !ok {
			return types.Datum{}, fmt.Errorf("want date string, got %T", v)
		}
		return types.DateFromString(s)
	default:
		return types.Datum{}, fmt.Errorf("unsupported column kind %s", kind)
	}
}

// parseKind maps a wire type name to a datum kind.
func parseKind(s string) (types.Kind, error) {
	switch s {
	case "bool":
		return types.Bool, nil
	case "int":
		return types.Int, nil
	case "float":
		return types.Float, nil
	case "string":
		return types.String, nil
	case "date":
		return types.Date, nil
	}
	return types.Unknown, fmt.Errorf("unknown column type %q (want bool, int, float, string, or date)", s)
}

// Handler returns the server's HTTP front end. All request and
// response bodies are JSON; /query streams JSON lines.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", s.handleCreateSession)
	mux.HandleFunc("GET /session/{id}", s.handleSessionInfo)
	mux.HandleFunc("DELETE /session/{id}", s.handleCloseSession)
	mux.HandleFunc("POST /session/{id}/begin", s.handleTxn((*Session).Begin))
	mux.HandleFunc("POST /session/{id}/commit", s.handleTxn((*Session).Commit))
	mux.HandleFunc("POST /session/{id}/rollback", s.handleTxn((*Session).Rollback))
	mux.HandleFunc("POST /prepare", s.handlePrepare)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /exec", s.handleExec)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("POST /cursor/{id}", s.handleCursorFetch)
	mux.HandleFunc("DELETE /cursor/{id}", s.handleCursorClose)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /schema", s.handleSchema)
	// Readiness gate: while the database is opening (recovery replaying
	// the log) every data-path request is rejected with 503 not_ready.
	// The probes stay open — /healthz answers liveness throughout, and
	// /readyz reports the gate itself.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz":
			mux.ServeHTTP(w, r)
			return
		}
		if err := s.Ready(); err != nil {
			writeError(w, err)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// sessionResponse is the /session response shape.
type sessionResponse struct {
	Session string        `json:"session"`
	Config  SessionConfig `json:"config"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if r.ContentLength != 0 {
		if err := decodeBody(r, &cfg); err != nil {
			writeError(w, err)
			return
		}
	}
	sess, err := s.CreateSession(cfg)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, sessionResponse{Session: sess.id, Config: sess.cfg})
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	sess.mu.Lock()
	info := struct {
		Session  string        `json:"session"`
		Config   SessionConfig `json:"config"`
		InFlight int           `json:"in_flight"`
		Cursors  int           `json:"cursors"`
		Stmts    int           `json:"stmts"`
		Txn      bool          `json:"txn"`
	}{sess.id, sess.cfg, sess.inflight, len(sess.cursors), len(sess.stmts), sess.snap != nil}
	sess.mu.Unlock()
	writeJSON(w, info)
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	if err := s.CloseSession(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]bool{"closed": true})
}

func (s *Server) handleTxn(op func(*Session) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.Session(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		if err := op(sess); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, map[string]bool{"ok": true})
	}
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
		SQL     string `json:"sql"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	sess, err := s.Session(req.Session)
	if err != nil {
		writeError(w, err)
		return
	}
	id, err := sess.Prepare(req.SQL)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]string{"stmt": id})
}

// queryRequest is the /query request shape: sql text or a prepared
// statement handle, optionally as a server-side cursor.
type queryRequest struct {
	Session string `json:"session,omitempty"`
	SQL     string `json:"sql,omitempty"`
	Stmt    string `json:"stmt,omitempty"`
	// Cursor opens a server-side streaming cursor instead of returning
	// rows inline; fetch batches via POST /cursor/{id}.
	Cursor bool `json:"cursor,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if (req.SQL == "") == (req.Stmt == "") {
		writeError(w, errors.New("exactly one of sql or stmt is required"))
		return
	}

	// Resolve the session (optional for plain sql queries: a
	// sessionless query runs under the server-wide defaults).
	var sess *Session
	var err error
	if req.Session != "" {
		sess, err = s.Session(req.Session)
	} else if req.Stmt != "" || req.Cursor {
		err = errors.New("stmt and cursor queries require a session")
	}
	if err != nil {
		writeError(w, err)
		return
	}

	// Per-session concurrency slot, then global admission.
	slot := func() {}
	reserve := s.adm.cfg.DefaultReserve
	if sess != nil {
		slot, err = sess.acquire()
		if err != nil {
			writeError(w, err)
			return
		}
		reserve = sess.reserve()
	}
	release, queued, err := s.adm.Admit(r.Context(), reserve)
	if err != nil {
		slot()
		writeError(w, err)
		return
	}

	var snap *orthoq.Snapshot
	cfg := orthoq.DefaultConfig()
	cfg.QueryLog = s.cfg.QueryLog
	if sess != nil {
		snap = sess.snapshot()
		cfg = sess.config()
		defer sess.touch()
	}
	cfg.Queued = queued

	if req.Cursor {
		s.openCursor(w, sess, req, cfg, snap, slot, release)
		return
	}

	// Inline query: run to completion (admission reservation released
	// on every path, including panics inside the engine's containment),
	// then stream the materialized rows as JSON lines.
	defer release()
	defer slot()
	var rows *orthoq.Rows
	if req.Stmt != "" {
		var st *orthoq.Stmt
		if st, err = sess.stmt(req.Stmt); err == nil {
			rows, err = st.RunSnapshot(r.Context(), snap)
		}
	} else {
		rows, err = s.db.QuerySnapshot(r.Context(), req.SQL, cfg, snap)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeRowsJSONL(w, rows, queued)
}

// writeRowsJSONL streams a materialized result as JSON lines: a
// columns header, one line per row, and a trailer with run stats. It
// must not flush: the handler returns next, and net/http then sends a
// small reply as one write with a Content-Length. A flush here forces
// a chunked reply whose terminating chunk is a second write that the
// client reads with the first or after another wake-up, by timing.
func writeRowsJSONL(w http.ResponseWriter, rows *orthoq.Rows, queued time.Duration) {
	w.Header().Set("Content-Type", "application/jsonl")
	enc := json.NewEncoder(w)
	_ = enc.Encode(&columnsLine{rows.Columns})
	line := &rowLine{Row: make([]any, 0, len(rows.Columns))}
	for _, row := range rows.Data {
		line.Row = line.Row[:0]
		for _, d := range row {
			line.Row = append(line.Row, datumJSON(d))
		}
		_ = enc.Encode(line)
	}
	trailer := &trailerLine{Cache: rows.Cache, Done: true, ElapsedUS: rows.Elapsed.Microseconds(), Rows: len(rows.Data)}
	if queued > 0 {
		us := queued.Microseconds()
		trailer.QueuedUS = &us
	}
	_ = enc.Encode(trailer)
}

// The lines of an inline reply. They are structs rather than maps,
// which encoding/json sorts and boxes on every line; the fields are in
// the order of a map's sorted keys, so the bytes are the same.
type (
	columnsLine struct {
		Columns []string `json:"columns"`
	}
	rowLine struct {
		Row []any `json:"row"`
	}
	trailerLine struct {
		Cache     string `json:"cache"`
		Done      bool   `json:"done"`
		ElapsedUS int64  `json:"elapsed_us"`
		QueuedUS  *int64 `json:"queued_us,omitempty"` // present exactly when the query queued
		Rows      int    `json:"rows"`
	}
)

// openCursor starts a server-side streaming cursor. The stream's
// context is detached from the creating request (the cursor outlives
// it); the cursor keeps the session slot and admission reservation
// until it is closed — by the client, by exhaustion, or by the idle
// reaper.
func (s *Server) openCursor(w http.ResponseWriter, sess *Session, req queryRequest,
	cfg orthoq.Config, snap *orthoq.Snapshot, slot, release func()) {

	if req.Stmt != "" {
		slot()
		release()
		writeError(w, errors.New("cursor queries take sql, not stmt"))
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	st, err := s.db.QueryStreamSnapshot(ctx, req.SQL, cfg, snap)
	if err != nil {
		cancel()
		slot()
		release()
		writeError(w, err)
		return
	}
	cu, err := sess.addCursor(st, cancel, slot, release)
	if err != nil {
		_ = st.Close()
		cancel()
		slot()
		release()
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"cursor": cu.id, "session": sess.id, "columns": cu.cols})
}

func (s *Server) handleCursorFetch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
		Limit   int    `json:"limit,omitempty"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	cu, err := s.findCursor(req.Session, r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	rows, done, err := cu.fetch(req.Limit)
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([][]any, len(rows))
	for i, row := range rows {
		line := make([]any, len(row))
		for j, d := range row {
			line[j] = datumJSON(d)
		}
		out[i] = line
	}
	writeJSON(w, map[string]any{"rows": out, "done": done})
}

func (s *Server) handleCursorClose(w http.ResponseWriter, r *http.Request) {
	cu, err := s.findCursor(r.URL.Query().Get("session"), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	cu.close(false)
	writeJSON(w, map[string]bool{"closed": true})
}

func (s *Server) findCursor(session, id string) (*cursor, error) {
	sess, err := s.Session(session)
	if err != nil {
		return nil, err
	}
	return sess.cursor(id)
}

// execRequest is the /exec request shape: exactly one of the DDL/DML
// operations.
type execRequest struct {
	Session     string `json:"session,omitempty"`
	CreateTable *struct {
		Name    string `json:"name"`
		Columns []struct {
			Name     string `json:"name"`
			Type     string `json:"type"`
			Nullable bool   `json:"nullable,omitempty"`
		} `json:"columns"`
		Key     []int `json:"key"`
		Indexes []struct {
			Name    string `json:"name"`
			Cols    []int  `json:"cols"`
			Unique  bool   `json:"unique,omitempty"`
			Ordered bool   `json:"ordered,omitempty"`
		} `json:"indexes,omitempty"`
	} `json:"create_table,omitempty"`
	Insert *struct {
		Table string  `json:"table"`
		Rows  [][]any `json:"rows"`
	} `json:"insert,omitempty"`
	Analyze bool `json:"analyze,omitempty"`
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req execRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Session != "" {
		sess, err := s.Session(req.Session)
		if err != nil {
			writeError(w, err)
			return
		}
		if sess.inTxn() {
			writeError(w, ErrTxnWrite)
			return
		}
		sess.touch()
	}
	switch {
	case req.CreateTable != nil:
		ct := req.CreateTable
		t := &orthoq.Table{Name: ct.Name, Key: ct.Key}
		for _, c := range ct.Columns {
			kind, err := parseKind(c.Type)
			if err != nil {
				writeError(w, err)
				return
			}
			t.Columns = append(t.Columns, orthoq.Column{Name: c.Name, Type: kind, Nullable: c.Nullable})
		}
		for _, idx := range ct.Indexes {
			t.Indexes = append(t.Indexes, orthoq.Index{
				Name: idx.Name, Cols: idx.Cols, Unique: idx.Unique, Ordered: idx.Ordered})
		}
		if err := s.db.CreateTable(t); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, map[string]any{"created": t.Name})
	case req.Insert != nil:
		schema, ok := s.db.Catalog().Table(req.Insert.Table)
		if !ok {
			writeError(w, fmt.Errorf("%w: table %s", ErrNotFound, req.Insert.Table))
			return
		}
		rows := make([]orthoq.Row, 0, len(req.Insert.Rows))
		for ri, raw := range req.Insert.Rows {
			if len(raw) != len(schema.Columns) {
				writeError(w, fmt.Errorf("row %d: want %d columns, got %d", ri, len(schema.Columns), len(raw)))
				return
			}
			row := make(orthoq.Row, len(raw))
			for ci, v := range raw {
				d, err := datumFromJSON(v, schema.Columns[ci].Type)
				if err != nil {
					writeError(w, fmt.Errorf("row %d column %s: %w", ri, schema.Columns[ci].Name, err))
					return
				}
				row[ci] = d
			}
			rows = append(rows, row)
		}
		if err := s.db.Insert(req.Insert.Table, rows...); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, map[string]any{"inserted": len(rows)})
	case req.Analyze:
		s.db.Analyze()
		writeJSON(w, map[string]bool{"analyzed": true})
	default:
		writeError(w, errors.New("exec wants create_table, insert, or analyze"))
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session,omitempty"`
		SQL     string `json:"sql"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	cfg := orthoq.DefaultConfig()
	if req.Session != "" {
		sess, err := s.Session(req.Session)
		if err != nil {
			writeError(w, err)
			return
		}
		cfg = sess.config()
		sess.touch()
	}
	plan, err := s.db.Explain(req.SQL, cfg)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]string{"plan": plan})
}

// handleHealthz is the liveness probe: it answers ok whenever the
// process can serve HTTP at all — including while recovery is still
// replaying or the server is draining. Only Close makes it fail (the
// process is on its way out). Routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-s.closed:
		writeError(w, ErrServerClosed)
	default:
		writeJSON(w, map[string]string{"status": "ok"})
	}
}

// handleReadyz is the readiness probe: 200 only when the database is
// open and the server is neither draining nor closed — the signal load
// balancers use to route (or stop routing) traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-s.closed:
		writeError(w, ErrServerClosed)
		return
	default:
	}
	if err := s.Ready(); err != nil {
		writeError(w, err)
		return
	}
	if s.draining.Load() {
		writeError(w, fmt.Errorf("%w: draining", ErrNotReady))
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Metrics())
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	type colInfo struct {
		Name     string `json:"name"`
		Type     string `json:"type"`
		Nullable bool   `json:"nullable,omitempty"`
	}
	type tableInfo struct {
		Name    string    `json:"name"`
		Columns []colInfo `json:"columns"`
		Rows    int       `json:"rows"`
	}
	var out []tableInfo
	for _, t := range s.db.Catalog().Tables() {
		ti := tableInfo{Name: t.Name}
		for _, c := range t.Columns {
			ti.Columns = append(ti.Columns, colInfo{c.Name, c.Type.String(), c.Nullable})
		}
		if n, ok := s.db.TableRowCount(t.Name); ok {
			ti.Rows = n
		}
		out = append(out, ti)
	}
	writeJSON(w, map[string]any{"tables": out})
}
