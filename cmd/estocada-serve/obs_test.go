package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// get runs one GET through the handler stack.
func get(t *testing.T, srv *server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// The /metrics endpoint serves valid Prometheus text format, and after a
// query the phase, end-to-end, and per-store latency histograms are
// non-empty.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t, service.Options{})
	if code, resp := post(t, srv, "/query", visitsScan); code != http.StatusOK {
		t.Fatalf("query: %d %v", code, resp)
	}

	w := get(t, srv, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	text := w.Body.String()
	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		`estocada_query_phase_seconds_count{phase="execute"} 1`,
		"estocada_query_seconds_count 1",
		"estocada_queries_total 1",
		`estocada_store_latency_seconds_count{store=`,
		`estocada_breaker_open{store=`,
		"estocada_data_epoch",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
	// Per-store latency must actually have observations, not just series.
	empty := true
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "estocada_store_latency_seconds_count{") &&
			!strings.HasSuffix(line, " 0") {
			empty = false
		}
	}
	if empty {
		t.Error("all per-store latency histograms empty after a query")
	}
}

// explain=true attaches the per-operator tree to the materialized
// response for every surface language, with rows/batches/time per
// operator and store attribution on leaf accesses.
func TestExplainAllLanguages(t *testing.T) {
	srv := testServer(t, service.Options{})
	cases := []struct {
		lang, query string
	}{
		{"sql", "SELECT u.name FROM Users u WHERE u.city = 'city03'"},
		{"flwor", `for c in Carts where c.uid = \"u00001\" return c.pid, c.qty`},
		{"cq", "Q(pid, qty) :- Carts('u00001', pid, qty)"},
	}
	for _, c := range cases {
		body := `{"lang":"` + c.lang + `","query":"` + c.query + `","explain":true}`
		code, resp := post(t, srv, "/query", body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", c.lang, code, resp)
		}
		plan, ok := resp["plan"].(map[string]any)
		if !ok {
			t.Fatalf("%s: no plan in explained response: %v", c.lang, resp)
		}
		var labels []string
		var walk func(n map[string]any)
		walk = func(n map[string]any) {
			op, _ := n["op"].(string)
			if op == "" {
				t.Errorf("%s: operator without label: %v", c.lang, n)
			}
			labels = append(labels, op)
			if _, ok := n["rows"].(float64); !ok {
				t.Errorf("%s: operator %q missing rows", c.lang, op)
			}
			if _, ok := n["batches"].(float64); !ok {
				t.Errorf("%s: operator %q missing batches", c.lang, op)
			}
			if _, ok := n["timeUs"].(float64); !ok {
				t.Errorf("%s: operator %q missing timeUs", c.lang, op)
			}
			if kids, ok := n["children"].([]any); ok {
				for _, k := range kids {
					walk(k.(map[string]any))
				}
			}
		}
		walk(plan)
		attributed := false
		for _, l := range labels {
			if strings.Contains(l, ".access(") || strings.Contains(l, ".fetch(") {
				attributed = true
			}
		}
		if !attributed {
			t.Errorf("%s: no store-attributed operator in plan: %v", c.lang, labels)
		}
	}

	// Without explain, no plan rides the response.
	code, resp := post(t, srv, "/query", visitsScan)
	if code != http.StatusOK {
		t.Fatal("plain query failed")
	}
	if _, ok := resp["plan"]; ok {
		t.Error("unexplained response carries a plan")
	}
}

// /debug/queries exposes the slow-query log; with a nanosecond threshold
// every query lands there, newest first.
func TestDebugQueriesEndpoint(t *testing.T) {
	srv := testServer(t, service.Options{SlowQueryThreshold: time.Nanosecond})

	// Before any query: an empty array, not null.
	w := get(t, srv, "/debug/queries")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/queries status = %d", w.Code)
	}
	var empty struct {
		Queries []service.SlowQuery `json:"queries"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &empty); err != nil {
		t.Fatalf("bad empty /debug/queries body: %v", err)
	}
	if empty.Queries == nil || len(empty.Queries) != 0 {
		t.Errorf("empty log not an empty array: %s", w.Body.String())
	}

	req := httptest.NewRequest(http.MethodPost, "/query?explain=1", strings.NewReader(visitsScan))
	req.Header.Set("X-Request-ID", "trace-me-9")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status = %d", rec.Code)
	}

	w = get(t, srv, "/debug/queries")
	var out struct {
		Queries []service.SlowQuery `json:"queries"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /debug/queries body: %v", err)
	}
	if len(out.Queries) != 1 {
		t.Fatalf("slow log entries = %d, want 1", len(out.Queries))
	}
	e := out.Queries[0]
	if e.RequestID != "trace-me-9" {
		t.Errorf("RequestID = %q", e.RequestID)
	}
	if e.Fingerprint == "" || e.Rows == 0 || len(e.Phases) == 0 {
		t.Errorf("entry incomplete: %+v", e)
	}
	if e.Profile == nil {
		t.Error("explained query lost its plan in the slow log")
	}
}

// X-Request-ID: a client-sent ID is echoed; an absent one is generated;
// error bodies carry it for correlation.
func TestRequestIDPropagation(t *testing.T) {
	srv := testServer(t, service.Options{})

	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(visitsScan))
	req.Header.Set("X-Request-ID", "client-id-1")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if got := w.Header().Get("X-Request-ID"); got != "client-id-1" {
		t.Errorf("client ID not echoed: %q", got)
	}

	req = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(visitsScan))
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if got := w.Header().Get("X-Request-ID"); got == "" {
		t.Error("no generated X-Request-ID on response")
	}

	// Errors carry the ID in the body.
	req = httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"lang":"sql","query":"SELECT FROM !!"}`))
	req.Header.Set("X-Request-ID", "err-id-2")
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", w.Code)
	}
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if id, _ := resp["error"].(map[string]any)["requestId"].(string); id != "err-id-2" {
		t.Errorf("error body requestId = %q, want err-id-2", id)
	}
}

// pprof rides the same mux.
func TestPprofMounted(t *testing.T) {
	srv := testServer(t, service.Options{})
	w := get(t, srv, "/debug/pprof/cmdline")
	if w.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", w.Code)
	}
}

// Ad-hoc text through /query goes through the service's shape cache: the
// second text of one shape is a hit, counted in /stats and /metrics.
func TestQueryTextShapeCacheCounted(t *testing.T) {
	srv := testServer(t, service.Options{})
	for _, uid := range []string{"u00001", "u00002"} {
		code, resp := post(t, srv, "/query",
			`{"lang":"sql","query":"SELECT c.pid, c.qty FROM Carts c WHERE c.uid = '`+uid+`'"}`)
		if code != http.StatusOK {
			t.Fatalf("status = %d, body %v", code, resp)
		}
	}
	var stats struct {
		Service service.MetricsSnapshot `json:"service"`
	}
	if err := json.Unmarshal(get(t, srv, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if s := stats.Service; s.ShapeHits != 1 || s.ShapeMisses != 1 || s.ShapeDeclines != 0 || s.ShapeEntries != 1 {
		t.Errorf("/stats shape counters = %+v, want 1 hit, 1 miss, 0 declines, 1 entry", s)
	}
	text := get(t, srv, "/metrics").Body.String()
	for _, want := range []string{
		`estocada_shape_cache_events_total{event="hit"} 1`,
		`estocada_shape_cache_events_total{event="miss"} 1`,
		`estocada_shape_cache_events_total{event="decline"} 0`,
		`estocada_shape_cache_entries 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
}
