package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engines/engine"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/value"
)

// server is the HTTP front end over one mediator service: sessions,
// one-shot and streaming queries, server-side prepared statements, and a
// registry of paginated cursors reaped by TTL. Every query path rides
// the service's Rows cursor — the full result is never materialized in
// the front end; NDJSON responses flush once per drained value.Batch and
// paginated cursors hold their admission slot between fetches.
type server struct {
	svc       *service.Service
	reg       *obs.Registry // /metrics exposition; nil disables the endpoint
	mux       *http.ServeMux
	fetchRows int // default rows per /fetch when the client names none

	// traces retains a tail-sampled ring of finished request traces
	// (browsed at /debug/traces); traceSpans caps spans per trace
	// (0 = obs.DefaultMaxSpans). Both are fixed before serving starts.
	traces     *obs.TraceRing
	traceSpans int

	reqSeq atomic.Uint64 // generated X-Request-ID suffix

	curMu   sync.Mutex
	cursors map[uint64]*cursorHandle
	nextCur atomic.Uint64
}

// maxFetchRows caps one /fetch page regardless of the client's "max".
const maxFetchRows = 16 * value.BatchCap

// cursorHandle is one registered paginated cursor. lastUse is guarded by
// server.curMu; mu serializes fetch/close on the cursor itself.
type cursorHandle struct {
	id      uint64
	mu      sync.Mutex
	rows    *service.Rows
	columns []string
	lastUse time.Time
}

func newServer(svc *service.Service, reg *obs.Registry) *server {
	s := &server{
		svc:       svc,
		reg:       reg,
		mux:       http.NewServeMux(),
		fetchRows: value.BatchCap,
		traces:    obs.NewTraceRing(0, 0, 0),
		cursors:   map[uint64]*cursorHandle{},
	}
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/session", s.handleSession)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/insert", s.handleInsert)
	s.mux.HandleFunc("/delete", s.handleDelete)
	s.mux.HandleFunc("/prepare", s.handlePrepare)
	s.mux.HandleFunc("/execute", s.handleExecute)
	s.mux.HandleFunc("/fetch", s.handleFetch)
	s.mux.HandleFunc("/close", s.handleClose)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/fragments", s.handleFragments)
	s.mux.HandleFunc("/fault", s.handleFault)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/queries", s.handleSlowQueries)
	s.mux.HandleFunc("/debug/workload", s.handleWorkload)
	s.mux.HandleFunc("/debug/traces", s.handleTraces)
	s.mux.HandleFunc("/debug/traces/", s.handleTraceByID)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP threads a request ID through every handler: the client's
// X-Request-ID when present, a generated one otherwise. The ID is echoed
// on the response, carried in the request context (so spans, slow-log
// entries and store-layer errors correlate), and stamped into error
// bodies.
//
// Query-serving requests additionally get a hierarchical trace: the
// client's W3C traceparent header is ingested when well-formed (the
// request joins the caller's trace; a response traceparent echoes this
// server's root span), spans from the service, executor and store layers
// record into it, and the finished trace is offered to the tail-sampled
// ring behind /debug/traces. Liveness and observability endpoints stay
// untraced so scraping never floods the ring.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = fmt.Sprintf("req-%x-%x", time.Now().UnixNano()&0xffffffff, s.reqSeq.Add(1))
	}
	w.Header().Set("X-Request-ID", id)
	ctx := obs.WithRequestID(r.Context(), id)
	if !traced(r.URL.Path) {
		s.mux.ServeHTTP(w, r.WithContext(ctx))
		return
	}
	start := time.Now()
	var traceID obs.TraceID
	var remote obs.SpanID
	if tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		traceID, remote = tc.TraceID, tc.SpanID
	}
	tr := obs.NewTrace(r.Method+" "+r.URL.Path, traceID, start, s.traceSpans)
	if !remote.IsZero() {
		tr.SetRemoteParent(remote)
	}
	tr.SetRequestID(id)
	w.Header().Set("traceparent",
		obs.TraceContext{TraceID: tr.ID(), SpanID: tr.Root(), Sampled: true}.String())
	s.mux.ServeHTTP(w, r.WithContext(obs.WithTrace(ctx, tr)))
	tr.Finish(time.Since(start))
	s.traces.Offer(tr)
}

// traced reports whether a path gets a request trace. Probes and
// observability reads are excluded — tracing the trace browser would
// fill the ring with its own requests.
func traced(path string) bool {
	return path != "/healthz" && path != "/metrics" && !strings.HasPrefix(path, "/debug/")
}

// --- error mapping ---------------------------------------------------------

// errUnknownSession, errUnknownCursor and errBadRequest are
// front-end-level errors (the service knows nothing about wire handles
// or request envelopes).
var (
	errUnknownSession = errors.New("unknown session")
	errUnknownCursor  = errors.New("unknown or expired cursor")
	errUnknownTrace   = errors.New("unknown or unsampled trace")
	errBadRequest     = errors.New("bad request")
)

// statusFor maps a failure to its HTTP status and a stable machine code:
// client mistakes (parse errors, unknown languages, infeasible queries,
// bad arguments) are 400s, missing handles are 404s, a truncated result
// is 422, timeouts are 504, and anything else is an internal 500.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, service.ErrParse):
		return http.StatusBadRequest, "parse_error"
	case errors.Is(err, service.ErrUnknownLanguage):
		return http.StatusBadRequest, "unknown_language"
	case errors.Is(err, service.ErrNoSchema):
		return http.StatusBadRequest, "no_schema"
	case errors.Is(err, service.ErrBadArgs):
		return http.StatusBadRequest, "bad_args"
	case errors.Is(err, core.ErrNoPlan):
		return http.StatusBadRequest, "no_plan"
	case errors.Is(err, core.ErrNoDML):
		return http.StatusBadRequest, "writes_disabled"
	case errors.Is(err, core.ErrUnknownRelation):
		return http.StatusNotFound, "unknown_relation"
	case errors.Is(err, core.ErrBadWrite):
		return http.StatusBadRequest, "bad_write"
	case errors.Is(err, service.ErrUnknownStatement):
		return http.StatusNotFound, "unknown_statement"
	case errors.Is(err, errUnknownSession):
		return http.StatusNotFound, "unknown_session"
	case errors.Is(err, errUnknownCursor):
		return http.StatusNotFound, "unknown_cursor"
	case errors.Is(err, errUnknownTrace):
		return http.StatusNotFound, "unknown_trace"
	case errors.Is(err, errBadRequest), errors.Is(err, core.ErrBadArgument):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, service.ErrResultTruncated):
		return http.StatusUnprocessableEntity, "result_truncated"
	// Store-attributed failures come before the generic timeout case so a
	// stalled store's deadline expiry reports which layer failed: the
	// mediator is healthy, one of its stores is not.
	case errors.Is(err, service.ErrStoreUnavailable):
		return http.StatusServiceUnavailable, "store_unavailable"
	case errors.Is(err, service.ErrStoreTimeout):
		return http.StatusGatewayTimeout, "store_timeout"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "timeout"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// errorBody renders the structured JSON error record (shared between
// status-coded responses and in-band NDJSON terminal records). The
// request ID, when known, rides along so a degraded response can be
// matched to its slow-query-log entry and server logs.
func errorBody(err error, requestID string) map[string]any {
	_, code := statusFor(err)
	e := map[string]any{"code": code, "message": err.Error()}
	if requestID != "" {
		e["requestId"] = requestID
	}
	return map[string]any{"error": e}
}

func (s *server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	// A failed request is always worth retaining: mark the trace so the
	// tail sampler keeps it.
	obs.TraceFrom(r.Context()).SetError(err.Error())
	status, _ := statusFor(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if encErr := json.NewEncoder(w).Encode(errorBody(err, obs.RequestID(r.Context()))); encErr != nil {
		log.Printf("encode error response: %v", encErr)
	}
}

// --- request plumbing ------------------------------------------------------

type queryRequest struct {
	Lang    string `json:"lang"`
	Query   string `json:"query"`
	Session uint64 `json:"session"`
	Stream  bool   `json:"stream"`
	Cursor  bool   `json:"cursor"`
	MaxRows int64  `json:"maxRows"`
	// Explain (alias Profile; also ?explain=1 / ?profile=1) runs the
	// query with per-operator profiling and attaches the EXPLAIN ANALYZE
	// tree to the response as "plan".
	Explain bool `json:"explain"`
	Profile bool `json:"profile"`
}

type executeRequest struct {
	Stmt    uint64 `json:"stmt"`
	Args    []any  `json:"args"`
	Stream  bool   `json:"stream"`
	Cursor  bool   `json:"cursor"`
	MaxRows int64  `json:"maxRows"`
	Explain bool   `json:"explain"`
	Profile bool   `json:"profile"`
}

// boolParam reads a query-string toggle ("1" or "true").
func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true"
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(dst); err != nil {
		s.writeError(w, r, fmt.Errorf("%w: %v", errBadRequest, err))
		return false
	}
	return true
}

func (s *server) handleSession(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	sess := s.svc.NewSession()
	writeJSON(w, map[string]any{"session": sess.ID()})
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	stream := req.Stream || boolParam(r, "stream")
	cursorMode := req.Cursor || boolParam(r, "cursor")
	explain := req.Explain || req.Profile || boolParam(r, "explain") || boolParam(r, "profile")

	// A paginated cursor outlives this request, so it cannot run under
	// r.Context(); the registry (TTL reaper) and the service's own
	// QueryTimeout bound its lifetime instead. The request ID and trace
	// transfer to the detached context so the cursor's queries stay
	// correlatable and later /fetch pages keep recording spans into the
	// originating request's trace.
	ctx := r.Context()
	if cursorMode {
		ctx = obs.WithTrace(
			obs.WithRequestID(context.Background(), obs.RequestID(r.Context())),
			obs.TraceFrom(r.Context()))
	}
	if explain {
		ctx = obs.WithProfile(ctx)
	}
	var rows *service.Rows
	var err error
	if req.Session != 0 {
		sess, ok := s.svc.Session(req.Session)
		if !ok {
			s.writeError(w, r, fmt.Errorf("%w: %d", errUnknownSession, req.Session))
			return
		}
		rows, err = sess.QueryTextRows(ctx, req.Lang, req.Query)
	} else {
		rows, err = s.svc.QueryTextRows(ctx, req.Lang, req.Query)
	}
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	rows.Limit(req.MaxRows)
	s.respondRows(w, r, rows, stream, cursorMode)
}

func (s *server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req struct {
		Lang  string `json:"lang"`
		Query string `json:"query"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	st, err := s.svc.Prepare(r.Context(), req.Lang, req.Query)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, map[string]any{"stmt": st.ID(), "params": st.NumParams()})
}

func (s *server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req executeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	stream := req.Stream || boolParam(r, "stream")
	cursorMode := req.Cursor || boolParam(r, "cursor")
	explain := req.Explain || req.Profile || boolParam(r, "explain") || boolParam(r, "profile")
	ctx := r.Context()
	if cursorMode {
		// Same detached-context transfer as /query: request ID + trace.
		ctx = obs.WithTrace(
			obs.WithRequestID(context.Background(), obs.RequestID(r.Context())),
			obs.TraceFrom(r.Context()))
	}
	if explain {
		ctx = obs.WithProfile(ctx)
	}
	args := make([]value.Value, len(req.Args))
	for i, a := range req.Args {
		args[i] = jsonToValue(a)
	}
	rows, err := s.svc.ExecuteRows(ctx, req.Stmt, args...)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	rows.Limit(req.MaxRows)
	s.respondRows(w, r, rows, stream, cursorMode)
}

// respondRows delivers an open cursor in the caller's chosen mode:
// registered cursor handle, NDJSON stream, or materialized JSON.
func (s *server) respondRows(w http.ResponseWriter, r *http.Request, rows *service.Rows, stream, cursorMode bool) {
	switch {
	case cursorMode:
		h := s.registerCursor(rows)
		writeJSON(w, map[string]any{"cursor": h.id, "columns": h.columns})
	case stream:
		s.streamRows(w, r, rows)
	default:
		s.respondMaterialized(w, r, rows)
	}
}

// respondMaterialized drains the cursor into the legacy one-shot JSON
// response shape.
func (s *server) respondMaterialized(w http.ResponseWriter, r *http.Request, rows *service.Rows) {
	res, err := rows.Materialize()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	out := make([][]any, len(res.Rows))
	for i, t := range res.Rows {
		out[i] = jsonTuple(t)
	}
	resp := map[string]any{
		"rows":   out,
		"report": reportJSON(rows, true), // Materialize closed the cursor
	}
	if p := rows.Profile(); p != nil {
		resp["plan"] = p
		if pv := rows.Planner(); pv != nil {
			resp["planner"] = pv
		}
	}
	writeJSON(w, resp)
}

// streamRows writes the NDJSON protocol: a columns header, one row
// record per tuple flushed once per drained batch, and a terminal record
// — {"done":true,...} with the report, or {"error":{...}} if the
// executor failed mid-stream.
func (s *server) streamRows(w http.ResponseWriter, r *http.Request, rows *service.Rows) {
	defer rows.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	encode := func(v any) {
		if err := enc.Encode(v); err != nil {
			log.Printf("encode stream record: %v", err)
		}
	}
	encode(map[string]any{"columns": rows.Columns()})
	flush()
	for {
		chunk, err := rows.NextChunk()
		if err != nil {
			encode(errorBody(err, obs.RequestID(r.Context())))
			flush()
			return
		}
		if chunk == nil {
			break
		}
		for _, t := range chunk {
			encode(map[string]any{"row": jsonTuple(t)})
		}
		flush() // once per drained value.Batch
	}
	rows.Close()
	terminal := map[string]any{"done": true, "report": reportJSON(rows, true)}
	if p := rows.Profile(); p != nil {
		terminal["plan"] = p
		if pv := rows.Planner(); pv != nil {
			terminal["planner"] = pv
		}
	}
	encode(terminal)
	flush()
}

// reportJSON renders the per-query report of a closed (or open) cursor.
func reportJSON(rows *service.Rows, closed bool) map[string]any {
	rep := map[string]any{
		"fingerprint": rows.Fingerprint(),
		"cacheHit":    rows.CacheHit(),
		"coalesced":   rows.Coalesced(),
		"planTimeUs":  rows.PlanTime().Microseconds(),
		"rows":        rows.RowsServed(),
	}
	if closed {
		rep["execTimeUs"] = rows.ExecTime().Microseconds()
		perStore := map[string]map[string]int64{}
		for store, c := range rows.PerStore() {
			perStore[store] = map[string]int64{
				"requests": c.Requests, "scans": c.Scans,
				"lookups": c.Lookups, "tuples": c.Tuples,
			}
		}
		rep["perStore"] = perStore
	}
	return rep
}

// --- write path ------------------------------------------------------------

// writeRequest is the one-shot JSON body of /insert and /delete.
type writeRequest struct {
	Relation string  `json:"relation"`
	Rows     [][]any `json:"rows"`
}

// ingestLine is one NDJSON record of a batch ingest.
type ingestLine struct {
	Relation string `json:"relation"`
	Row      []any  `json:"row"`
}

// ndjsonChunkRows bounds how many rows one WriteBatch call of an NDJSON
// ingest carries (one admission slot per chunk, so an unbounded upload
// cannot hold a slot forever).
const ndjsonChunkRows = 4096

func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) { s.handleWrite(w, r, false) }
func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) { s.handleWrite(w, r, true) }

// handleWrite serves /insert and /delete: a JSON body
// {"relation":"Users","rows":[[...],...]} applies one batch, while
// Content-Type application/x-ndjson streams batch ingest — one
// {"relation":"...","row":[...]} record per line, applied in order and
// chunked so each chunk takes one admission slot. Writes flow through the
// maintenance layer: every fragment whose definition mentions the
// relation is incrementally updated, and the response reports the
// per-fragment physical deltas.
func (s *server) handleWrite(w http.ResponseWriter, r *http.Request, del bool) {
	if !requirePost(w, r) {
		return
	}
	if strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		s.handleIngest(w, r, del)
		return
	}
	var req writeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Relation == "" || len(req.Rows) == 0 {
		s.writeError(w, r, fmt.Errorf("%w: write needs a relation and rows", errBadRequest))
		return
	}
	rows := make([]value.Tuple, len(req.Rows))
	for i, jr := range req.Rows {
		rows[i] = jsonRow(jr)
	}
	res, err := s.svc.WriteBatch(r.Context(), []service.WriteOp{{Delete: del, Relation: req.Relation, Rows: rows}})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, writeResultJSON(res))
}

// handleIngest consumes an NDJSON upload line by line, merging consecutive
// same-relation records into write operations and flushing a chunk per
// ndjsonChunkRows. Totals aggregate across chunks; the first failing
// operation aborts with the line range of the records it covered (earlier
// chunks and operations stay applied — the mediator offers no cross-store
// transactions).
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request, del bool) {
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	total := &service.WriteResult{Fragments: map[string]core.FragmentDelta{}}
	var ops []service.WriteOp
	var opLines [][2]int // per-op [first, last] source line
	pending := 0
	line := 0
	flush := func() error {
		if pending == 0 {
			return nil
		}
		res, err := s.svc.WriteBatch(r.Context(), ops)
		if err != nil {
			// Attribute the failure to the lines of the failing operation,
			// not to wherever the chunk happened to end.
			var opErr *service.BatchOpError
			if errors.As(err, &opErr) && opErr.Op < len(opLines) {
				lr := opLines[opErr.Op]
				if lr[0] == lr[1] {
					return fmt.Errorf("ingest line %d: %w", lr[0], opErr.Err)
				}
				return fmt.Errorf("ingest lines %d-%d: %w", lr[0], lr[1], opErr.Err)
			}
			return err
		}
		total.Inserted += res.Inserted
		total.Deleted += res.Deleted
		for name, d := range res.Fragments {
			agg := total.Fragments[name]
			agg.Added += d.Added
			agg.Removed += d.Removed
			total.Fragments[name] = agg
		}
		total.Latency += res.Latency
		ops, opLines, pending = nil, nil, 0
		return nil
	}
	for {
		var rec ingestLine
		err := dec.Decode(&rec)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			s.writeError(w, r, fmt.Errorf("%w: ingest line %d: %v", errBadRequest, line+1, err))
			return
		}
		line++
		if rec.Relation == "" || len(rec.Row) == 0 {
			s.writeError(w, r, fmt.Errorf("%w: ingest line %d needs relation and row", errBadRequest, line))
			return
		}
		row := jsonRow(rec.Row)
		if n := len(ops); n > 0 && ops[n-1].Relation == rec.Relation {
			ops[n-1].Rows = append(ops[n-1].Rows, row)
			opLines[n-1][1] = line
		} else {
			ops = append(ops, service.WriteOp{Delete: del, Relation: rec.Relation, Rows: []value.Tuple{row}})
			opLines = append(opLines, [2]int{line, line})
		}
		pending++
		if pending >= ndjsonChunkRows {
			if err := flush(); err != nil {
				s.writeError(w, r, err)
				return
			}
		}
	}
	if err := flush(); err != nil {
		s.writeError(w, r, err)
		return
	}
	out := writeResultJSON(total)
	out["lines"] = line
	writeJSON(w, out)
}

// writeResultJSON renders a write result for the wire.
func writeResultJSON(res *service.WriteResult) map[string]any {
	frags := map[string]map[string]int{}
	for name, d := range res.Fragments {
		frags[name] = map[string]int{"added": d.Added, "removed": d.Removed}
	}
	return map[string]any{
		"inserted":  res.Inserted,
		"deleted":   res.Deleted,
		"fragments": frags,
		"latencyUs": res.Latency.Microseconds(),
	}
}

// jsonRow maps one decoded JSON row to a tuple.
func jsonRow(cols []any) value.Tuple {
	t := make(value.Tuple, len(cols))
	for i, c := range cols {
		t[i] = jsonToValue(c)
	}
	return t
}

// --- paginated cursors -----------------------------------------------------

func (s *server) registerCursor(rows *service.Rows) *cursorHandle {
	h := &cursorHandle{
		id:      s.nextCur.Add(1),
		rows:    rows,
		columns: rows.Columns(),
		lastUse: time.Now(),
	}
	s.curMu.Lock()
	s.cursors[h.id] = h
	s.curMu.Unlock()
	return h
}

// lookupCursor returns a live handle and touches its TTL clock.
func (s *server) lookupCursor(id uint64) (*cursorHandle, bool) {
	s.curMu.Lock()
	defer s.curMu.Unlock()
	h, ok := s.cursors[id]
	if ok {
		h.lastUse = time.Now()
	}
	return h, ok
}

// dropCursor unregisters and closes a cursor (idempotent).
func (s *server) dropCursor(h *cursorHandle) {
	s.curMu.Lock()
	delete(s.cursors, h.id)
	s.curMu.Unlock()
	h.mu.Lock()
	h.rows.Close()
	h.mu.Unlock()
}

// reapCursors closes cursors idle longer than ttl — freeing their
// admission slots, execution state and pooled batches — and reports how
// many were reaped.
func (s *server) reapCursors(ttl time.Duration) int {
	cutoff := time.Now().Add(-ttl)
	s.curMu.Lock()
	var victims []*cursorHandle
	for id, h := range s.cursors {
		if h.lastUse.Before(cutoff) {
			delete(s.cursors, id)
			victims = append(victims, h)
		}
	}
	s.curMu.Unlock()
	for _, h := range victims {
		h.mu.Lock()
		h.rows.Close()
		h.mu.Unlock()
	}
	return len(victims)
}

func (s *server) cursorCount() int {
	s.curMu.Lock()
	defer s.curMu.Unlock()
	return len(s.cursors)
}

func (s *server) handleFetch(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req struct {
		Cursor uint64 `json:"cursor"`
		Max    int    `json:"max"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	h, ok := s.lookupCursor(req.Cursor)
	if !ok {
		s.writeError(w, r, fmt.Errorf("%w: %d", errUnknownCursor, req.Cursor))
		return
	}
	max := req.Max
	if max <= 0 {
		max = s.fetchRows
	}
	if max > maxFetchRows {
		max = maxFetchRows // clamp before the page allocation sized by it
	}
	h.mu.Lock()
	out := make([][]any, 0, max)
	for len(out) < max && h.rows.Next() {
		out = append(out, jsonTuple(h.rows.Tuple()))
	}
	err := h.rows.Err()
	done := err == nil && len(out) < max
	h.mu.Unlock()
	if err != nil {
		s.dropCursor(h)
		if len(out) == 0 {
			s.writeError(w, r, err)
			return
		}
		// Rows already pulled off the cursor (e.g. the page the
		// MaxResultRows cap fired on) are delivered, with the failure
		// in-band — mirroring the NDJSON terminal error record.
		resp := map[string]any{"cursor": h.id, "rows": out, "done": true}
		resp["error"] = errorBody(err, obs.RequestID(r.Context()))["error"]
		writeJSON(w, resp)
		return
	}
	if done {
		s.dropCursor(h)
	}
	resp := map[string]any{"cursor": h.id, "rows": out, "done": done}
	if done {
		if p := h.rows.Profile(); p != nil {
			resp["plan"] = p
			if pv := h.rows.Planner(); pv != nil {
				resp["planner"] = pv
			}
		}
	}
	writeJSON(w, resp)
}

// handleClose releases a server-side handle: a paginated cursor
// ({"cursor":id}) or a prepared statement ({"stmt":id}).
func (s *server) handleClose(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req struct {
		Cursor uint64 `json:"cursor"`
		Stmt   uint64 `json:"stmt"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	switch {
	case req.Cursor != 0:
		h, ok := s.lookupCursor(req.Cursor)
		if !ok {
			s.writeError(w, r, fmt.Errorf("%w: %d", errUnknownCursor, req.Cursor))
			return
		}
		s.dropCursor(h)
	case req.Stmt != 0:
		st, ok := s.svc.Stmt(req.Stmt)
		if !ok {
			s.writeError(w, r, fmt.Errorf("%w: %d", service.ErrUnknownStatement, req.Stmt))
			return
		}
		st.Close()
	default:
		s.writeError(w, r, fmt.Errorf("%w: close takes a cursor or stmt id", errBadRequest))
		return
	}
	writeJSON(w, map[string]any{"closed": true})
}

// --- introspection ---------------------------------------------------------

// statsResponse is the /stats wire shape: the service's consistent
// snapshot (metrics, per-store counters, breakers, epochs — see
// service.Stats) plus the front end's own cursor count.
type statsResponse struct {
	service.Stats
	Cursors int `json:"cursors"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, statsResponse{Stats: s.svc.Stats(), Cursors: s.cursorCount()})
}

// handleMetrics serves the Prometheus text exposition (format 0.0.4).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		http.Error(w, "metrics registry not configured", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		log.Printf("write /metrics: %v", err)
	}
}

// handleSlowQueries serves the slow-query ring, newest first: fingerprint,
// request ID, phase breakdown, and — for profiled queries — the operator
// tree.
func (s *server) handleSlowQueries(w http.ResponseWriter, r *http.Request) {
	q := s.svc.SlowQueries()
	if q == nil {
		q = []service.SlowQuery{}
	}
	writeJSON(w, map[string]any{"queries": q})
}

// handleWorkload serves the workload accountant's consistent snapshot:
// per-fingerprint traffic (EWMA rate, phase digests, fragment accesses,
// attributed store cost) sorted by attributed cost, plus per-fragment
// totals with benefit scores — the same numbers the self-tuning advisor
// consumes through advisor.FromWorkload.
func (s *server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.svc.Workload().Snapshot())
}

// handleTraces lists the retained request traces, newest first. ?ndjson=1
// streams one TraceSnapshot per line instead (export-friendly: pipe
// straight into files or trace tooling without holding the list in one
// JSON document).
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.traces.Traces()
	if boolParam(r, "ndjson") {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, t := range traces {
			if err := enc.Encode(t.Snapshot()); err != nil {
				log.Printf("encode trace export: %v", err)
				return
			}
		}
		return
	}
	out := make([]obs.TraceSnapshot, 0, len(traces))
	for _, t := range traces {
		out = append(out, t.Snapshot())
	}
	writeJSON(w, map[string]any{"traces": out})
}

// handleTraceByID serves one retained trace by its 32-hex-digit trace ID
// (the traceId clients see in the echoed traceparent header).
func (s *server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	t := s.traces.Get(id)
	if t == nil {
		s.writeError(w, r, fmt.Errorf("%w: %s", errUnknownTrace, id))
		return
	}
	writeJSON(w, t.Snapshot())
}

// --- fault administration ---------------------------------------------------

// faultRequest is the POST body of /fault: the target store ("*" applies
// to every registered store), either clear or a new policy, plus optional
// one-shot deterministic failure budgets.
type faultRequest struct {
	Store            string  `json:"store"`
	Clear            bool    `json:"clear"`
	ErrorRate        float64 `json:"errorRate"`
	WriteErrorRate   float64 `json:"writeErrorRate"`
	StallMs          int64   `json:"stallMs"`
	JitterMs         int64   `json:"jitterMs"`
	FailAfterBatches int     `json:"failAfterBatches"`
	FailNextReads    int     `json:"failNextReads"`
	FailNextWrites   int     `json:"failNextWrites"`
	Seed             int64   `json:"seed"`
}

// faultJSON renders one injector snapshot for the wire.
func faultJSON(snap engine.FaultSnapshot) map[string]any {
	return map[string]any{
		"store":             snap.Store,
		"errorRate":         snap.Config.ErrorRate,
		"writeErrorRate":    snap.Config.WriteErrorRate,
		"stallMs":           snap.Config.Stall.Milliseconds(),
		"jitterMs":          snap.Config.Jitter.Milliseconds(),
		"failAfterBatches":  snap.Config.FailAfterBatches,
		"injectedReads":     snap.InjectedReads,
		"injectedWrites":    snap.InjectedWrites,
		"pendingFailReads":  snap.PendingFailReads,
		"pendingFailWrites": snap.PendingFailWrites,
	}
}

// handleFault is the chaos-run admin surface. GET lists every store's
// injector state; POST configures one store (or "*" for all): a policy
// {"store":"pg","errorRate":0.2,"stallMs":50}, one-shot budgets
// {"store":"redis","failNextWrites":1}, or {"store":"*","clear":true}.
func (s *server) handleFault(w http.ResponseWriter, r *http.Request) {
	engines := s.svc.System().Stores.All()
	if r.Method == http.MethodGet {
		out := make([]map[string]any, 0, len(engines))
		for _, e := range engines {
			out = append(out, faultJSON(e.Fault().Snapshot()))
		}
		writeJSON(w, map[string]any{"faults": out})
		return
	}
	if !requirePost(w, r) {
		return
	}
	var req faultRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Store == "" {
		s.writeError(w, r, fmt.Errorf("%w: fault config needs a store name (or \"*\")", errBadRequest))
		return
	}
	var targets []engine.Engine
	if req.Store == "*" {
		targets = engines
	} else {
		for _, e := range engines {
			if e.Name() == req.Store {
				targets = append(targets, e)
				break
			}
		}
		if len(targets) == 0 {
			s.writeError(w, r, fmt.Errorf("%w: no store %q", errBadRequest, req.Store))
			return
		}
	}
	out := make([]map[string]any, 0, len(targets))
	for _, e := range targets {
		f := e.Fault()
		if req.Clear {
			f.Clear()
		} else {
			f.Configure(engine.FaultConfig{
				ErrorRate:        req.ErrorRate,
				WriteErrorRate:   req.WriteErrorRate,
				Stall:            time.Duration(req.StallMs) * time.Millisecond,
				Jitter:           time.Duration(req.JitterMs) * time.Millisecond,
				FailAfterBatches: req.FailAfterBatches,
				Seed:             req.Seed,
			})
			if req.FailNextReads > 0 {
				f.FailNextReads(req.FailNextReads)
			}
			if req.FailNextWrites > 0 {
				f.FailNextWrites(req.FailNextWrites)
			}
		}
		out = append(out, faultJSON(f.Snapshot()))
	}
	writeJSON(w, map[string]any{"faults": out})
}

func (s *server) handleFragments(w http.ResponseWriter, r *http.Request) {
	var out []string
	for _, f := range s.svc.System().Catalog.All() {
		out = append(out, f.Describe())
	}
	writeJSON(w, map[string]any{"fragments": out})
}

// --- JSON value mapping ----------------------------------------------------

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

// jsonTuple maps a result tuple to JSON-native values; nested structures
// fall back to their textual rendering.
func jsonTuple(t value.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		switch x := v.(type) {
		case value.Str:
			out[i] = string(x)
		case value.Int:
			out[i] = int64(x)
		case value.Float:
			out[i] = float64(x)
		case value.Bool:
			out[i] = bool(x)
		case value.Null, nil:
			out[i] = nil
		default:
			out[i] = x.String()
		}
	}
	return out
}

// jsonToValue maps a decoded JSON argument (decoded with UseNumber) to a
// store value: integral numbers become Int, other numbers Float.
func jsonToValue(v any) value.Value {
	switch x := v.(type) {
	case json.Number:
		if i, err := x.Int64(); err == nil && !strings.ContainsAny(x.String(), ".eE") {
			return value.Int(i)
		}
		f, _ := x.Float64()
		return value.Float(f)
	case string:
		return value.Str(x)
	case bool:
		return value.Bool(x)
	case nil:
		return value.Null{}
	default:
		return value.Of(x)
	}
}
