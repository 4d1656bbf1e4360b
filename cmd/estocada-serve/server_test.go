package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/service"
)

func testServer(t *testing.T, opts service.Options) *server {
	t.Helper()
	cfg := datagen.MarketplaceConfig{
		Seed: 7, Users: 80, Products: 30, OrdersPerUser: 3,
		VisitsPerUser: 4, PrefsPerUser: 2, CartItemsPerUser: 2, ZipfS: 1.2,
	}
	m, err := scenario.New(cfg, scenario.Materialized)
	if err != nil {
		t.Fatal(err)
	}
	opts.Schema = scenario.LogicalSchema
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	return newServer(service.New(m.Sys, opts), opts.Registry)
}

// post runs one request through the handler stack and decodes the JSON
// response.
func post(t *testing.T, srv *server, path, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var out map[string]any
	if len(w.Body.Bytes()) > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: bad JSON response %q: %v", path, w.Body.String(), err)
		}
	}
	return w.Code, out
}

func errCode(t *testing.T, resp map[string]any) string {
	t.Helper()
	e, ok := resp["error"].(map[string]any)
	if !ok {
		t.Fatalf("no structured error body in %v", resp)
	}
	code, _ := e["code"].(string)
	return code
}

const visitsScan = `{"lang":"cq","query":"Q(u, p, d) :- Visits(u, p, d)"}`

func TestQueryMaterialized(t *testing.T) {
	srv := testServer(t, service.Options{})
	code, resp := post(t, srv, "/query",
		`{"lang":"cq","query":"Q(pid, qty) :- Carts('u00001', pid, qty)"}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, resp)
	}
	if _, ok := resp["rows"].([]any); !ok {
		t.Fatalf("no rows array in %v", resp)
	}
	rep, ok := resp["report"].(map[string]any)
	if !ok || rep["fingerprint"] == "" {
		t.Errorf("missing report: %v", resp)
	}
	if _, ok := rep["perStore"].(map[string]any); !ok {
		t.Errorf("missing perStore in report: %v", rep)
	}
}

// The error-mapping satellite: each failure class gets its status and
// machine code, with a structured JSON body.
func TestErrorMapping(t *testing.T) {
	srv := testServer(t, service.Options{})
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantCode         string
	}{
		{"parse", "/query", `{"lang":"sql","query":"SELECT FROM !!"}`,
			http.StatusBadRequest, "parse_error"},
		{"unknown language", "/query", `{"lang":"graphql","query":"{}"}`,
			http.StatusBadRequest, "unknown_language"},
		{"unknown fragment", "/query", `{"lang":"cq","query":"Q(x) :- Nothing(x)"}`,
			http.StatusBadRequest, "no_plan"},
		{"unknown session", "/query", `{"lang":"cq","query":"Q(u,p,d) :- Visits(u,p,d)","session":999}`,
			http.StatusNotFound, "unknown_session"},
		{"unknown statement", "/execute", `{"stmt":999}`,
			http.StatusNotFound, "unknown_statement"},
		{"unknown cursor", "/fetch", `{"cursor":999}`,
			http.StatusNotFound, "unknown_cursor"},
		{"malformed body", "/query", `{"lang":`,
			http.StatusBadRequest, "bad_request"},
		{"close without handle", "/close", `{}`,
			http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		code, resp := post(t, srv, c.path, c.body)
		if code != c.wantStatus {
			t.Errorf("%s: status = %d, want %d (%v)", c.name, code, c.wantStatus, resp)
			continue
		}
		if got := errCode(t, resp); got != c.wantCode {
			t.Errorf("%s: code = %q, want %q", c.name, got, c.wantCode)
		}
	}
}

func TestTimeoutMapsTo504(t *testing.T) {
	srv := testServer(t, service.Options{QueryTimeout: time.Nanosecond})
	code, resp := post(t, srv, "/query", visitsScan)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%v), want 504", code, resp)
	}
	if got := errCode(t, resp); got != "timeout" {
		t.Errorf("code = %q, want timeout", got)
	}
}

func TestPrepareExecute(t *testing.T) {
	srv := testServer(t, service.Options{})
	code, resp := post(t, srv, "/prepare",
		`{"lang":"cq","query":"Q(pid, qty) :- Carts('u00001', pid, qty)"}`)
	if code != http.StatusOK {
		t.Fatalf("prepare status = %d (%v)", code, resp)
	}
	stmt := int64(resp["stmt"].(float64))
	if n := int(resp["params"].(float64)); n != 1 {
		t.Fatalf("params = %d, want 1", n)
	}

	// Execute for another user must match the direct query for that user.
	code, direct := post(t, srv, "/query",
		`{"lang":"cq","query":"Q(pid, qty) :- Carts('u00002', pid, qty)"}`)
	if code != http.StatusOK {
		t.Fatal("direct query failed")
	}
	code, exec := post(t, srv, "/execute",
		`{"stmt":`+itoa(stmt)+`,"args":["u00002"]}`)
	if code != http.StatusOK {
		t.Fatalf("execute status = %d (%v)", code, exec)
	}
	if len(exec["rows"].([]any)) != len(direct["rows"].([]any)) {
		t.Errorf("execute returned %d rows, direct query %d",
			len(exec["rows"].([]any)), len(direct["rows"].([]any)))
	}

	// Bad arity → 400 bad_args.
	code, resp = post(t, srv, "/execute", `{"stmt":`+itoa(stmt)+`,"args":["a","b"]}`)
	if code != http.StatusBadRequest || errCode(t, resp) != "bad_args" {
		t.Errorf("bad-arity execute: status %d code %q", code, errCode(t, resp))
	}

	// A JSON null is no constant a parameter could stand for → 400.
	code, resp = post(t, srv, "/execute", `{"stmt":`+itoa(stmt)+`,"args":[null]}`)
	if code != http.StatusBadRequest || errCode(t, resp) != "bad_request" {
		t.Errorf("null-argument execute: status %d code %q", code, errCode(t, resp))
	}

	// Statements release over HTTP: /close {"stmt":...} unregisters.
	if code, _ := post(t, srv, "/close", `{"stmt":`+itoa(stmt)+`}`); code != http.StatusOK {
		t.Fatalf("close stmt = %d", code)
	}
	code, resp = post(t, srv, "/execute", `{"stmt":`+itoa(stmt)+`,"args":["u00002"]}`)
	if code != http.StatusNotFound || errCode(t, resp) != "unknown_statement" {
		t.Errorf("execute after close: status %d code %q", code, errCode(t, resp))
	}
}

// Statements left behind by clients that never close are reaped by TTL.
func TestStatementExpiry(t *testing.T) {
	srv := testServer(t, service.Options{})
	code, _ := post(t, srv, "/prepare", `{"lang":"cq","query":"Q(pid, qty) :- Carts('u00001', pid, qty)"}`)
	if code != http.StatusOK {
		t.Fatal("prepare failed")
	}
	if got := srv.svc.Snapshot().Statements; got != 1 {
		t.Fatalf("statements = %d, want 1", got)
	}
	if n := srv.svc.ReapStatements(0); n != 1 { // idle TTL 0 = reap everything
		t.Fatalf("reaped %d statements, want 1", n)
	}
	if got := srv.svc.Snapshot().Statements; got != 0 {
		t.Errorf("statements = %d after reap, want 0", got)
	}
}

// A /fetch page on which the MaxResultRows cap fires must still deliver
// the rows it pulled, with the error in-band — never silently drop the
// final partial page.
func TestFetchTruncationDeliversPartialPage(t *testing.T) {
	srv := testServer(t, service.Options{MaxResultRows: 150})
	code, resp := post(t, srv, "/query", `{"lang":"cq","query":"Q(u, p, d) :- Visits(u, p, d)","cursor":true}`)
	if code != http.StatusOK {
		t.Fatalf("open = %d", code)
	}
	cur := int64(resp["cursor"].(float64))

	code, page1 := post(t, srv, "/fetch", `{"cursor":`+itoa(cur)+`,"max":100}`)
	if code != http.StatusOK || len(page1["rows"].([]any)) != 100 || page1["done"] == true {
		t.Fatalf("page 1: status %d, %d rows, done=%v", code, len(page1["rows"].([]any)), page1["done"])
	}
	// Page 2 hits the cap after 50 rows: rows delivered + in-band error.
	code, page2 := post(t, srv, "/fetch", `{"cursor":`+itoa(cur)+`,"max":100}`)
	if code != http.StatusOK {
		t.Fatalf("page 2: status %d (%v) — partial page lost", code, page2)
	}
	if got := len(page2["rows"].([]any)); got != 50 {
		t.Errorf("page 2 delivered %d rows, want the remaining 50 up to the cap", got)
	}
	if page2["done"] != true {
		t.Error("truncated page not marked done")
	}
	if e, ok := page2["error"].(map[string]any); !ok || e["code"] != "result_truncated" {
		t.Errorf("page 2 error = %v, want in-band result_truncated", page2["error"])
	}
	// The cursor was dropped with the truncation.
	if code, _ := post(t, srv, "/fetch", `{"cursor":`+itoa(cur)+`}`); code != http.StatusNotFound {
		t.Errorf("fetch after truncation = %d, want 404", code)
	}
	if n := srv.cursorCount(); n != 0 {
		t.Errorf("registry holds %d cursors", n)
	}
}

func itoa(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// Streaming NDJSON: a columns header, every row, a terminal done record
// with the report — all parseable line by line.
func TestQueryStreamNDJSON(t *testing.T) {
	srv := testServer(t, service.Options{})
	_, direct := post(t, srv, "/query", visitsScan) // ~300 rows: spans several batches
	want := len(direct["rows"].([]any))
	if want < 260 {
		t.Fatalf("fixture too small: %d rows", want)
	}

	req := httptest.NewRequest(http.MethodPost, "/query?stream=1", strings.NewReader(visitsScan))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}

	var rows, others int
	var sawColumns, sawDone bool
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case rec["row"] != nil:
			rows++
		case rec["columns"] != nil:
			sawColumns = true
			if len(rec["columns"].([]any)) != 3 {
				t.Errorf("columns = %v", rec["columns"])
			}
		case rec["done"] == true:
			sawDone = true
			rep := rec["report"].(map[string]any)
			if int(rep["rows"].(float64)) != want {
				t.Errorf("report rows = %v, want %d", rep["rows"], want)
			}
		default:
			others++
		}
	}
	if !sawColumns || !sawDone || others != 0 {
		t.Errorf("protocol records: columns=%v done=%v stray=%d", sawColumns, sawDone, others)
	}
	if rows != want {
		t.Errorf("streamed %d rows, want %d", rows, want)
	}
}

// A mid-stream failure (here: the MaxResultRows cap firing after rows
// have already been sent) must surface as a terminal in-band NDJSON
// error record — the status line was already committed as 200.
func TestStreamMidStreamError(t *testing.T) {
	srv := testServer(t, service.Options{MaxResultRows: 100})
	req := httptest.NewRequest(http.MethodPost, "/query?stream=1", strings.NewReader(visitsScan))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d (stream errors are in-band)", w.Code)
	}
	var rows int
	var terminal map[string]any
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["row"] != nil {
			rows++
		}
		if rec["error"] != nil {
			terminal = rec
		}
		if rec["done"] == true {
			t.Error("stream reported clean completion despite truncation")
		}
	}
	if rows != 100 {
		t.Errorf("streamed %d rows before the error, want exactly the cap (100)", rows)
	}
	if terminal == nil {
		t.Fatal("no terminal error record")
	}
	if code := terminal["error"].(map[string]any)["code"]; code != "result_truncated" {
		t.Errorf("terminal code = %v, want result_truncated", code)
	}
}

// Paginated cursors: open, fetch in pages, exhaustion closes, handles
// expire.
func TestCursorFetchClose(t *testing.T) {
	srv := testServer(t, service.Options{})
	code, resp := post(t, srv, "/query", `{"lang":"cq","query":"Q(u, p, d) :- Visits(u, p, d)","cursor":true}`)
	if code != http.StatusOK {
		t.Fatalf("open status = %d (%v)", code, resp)
	}
	cur := int64(resp["cursor"].(float64))
	if cols := resp["columns"].([]any); len(cols) != 3 {
		t.Fatalf("columns = %v", cols)
	}
	_, direct := post(t, srv, "/query", visitsScan)
	want := len(direct["rows"].([]any))

	got := 0
	pages := 0
	for {
		code, page := post(t, srv, "/fetch", `{"cursor":`+itoa(cur)+`,"max":64}`)
		if code != http.StatusOK {
			t.Fatalf("fetch status = %d (%v)", code, page)
		}
		got += len(page["rows"].([]any))
		pages++
		if page["done"] == true {
			break
		}
		if pages > 20 {
			t.Fatal("cursor never finished")
		}
	}
	if got != want || pages < 4 {
		t.Errorf("paginated drain: %d rows in %d pages, want %d rows in ≥4 pages", got, pages, want)
	}
	// Exhausted cursors are dropped: further fetches 404.
	if code, _ := post(t, srv, "/fetch", `{"cursor":`+itoa(cur)+`}`); code != http.StatusNotFound {
		t.Errorf("fetch after exhaustion = %d, want 404", code)
	}

	// Explicit close.
	code, resp = post(t, srv, "/query", `{"lang":"cq","query":"Q(u, p, d) :- Visits(u, p, d)","cursor":true}`)
	if code != http.StatusOK {
		t.Fatal("second open failed")
	}
	cur = int64(resp["cursor"].(float64))
	if code, _ := post(t, srv, "/close", `{"cursor":`+itoa(cur)+`}`); code != http.StatusOK {
		t.Errorf("close = %d", code)
	}
	if code, _ := post(t, srv, "/fetch", `{"cursor":`+itoa(cur)+`}`); code != http.StatusNotFound {
		t.Errorf("fetch after close = %d, want 404", code)
	}
	if n := srv.cursorCount(); n != 0 {
		t.Errorf("cursor registry holds %d entries, want 0", n)
	}
}

// Sessions created over HTTP expire through the service reaper: an
// expired handle answers 404, a live one keeps working.
func TestSessionExpiry(t *testing.T) {
	srv := testServer(t, service.Options{})
	code, resp := post(t, srv, "/session", "")
	if code != http.StatusOK {
		t.Fatalf("session status = %d", code)
	}
	id := int64(resp["session"].(float64))
	body := `{"lang":"cq","query":"Q(pid, qty) :- Carts('u00001', pid, qty)","session":` + itoa(id) + `}`
	if code, _ := post(t, srv, "/query", body); code != http.StatusOK {
		t.Fatalf("session query = %d", code)
	}
	if n := srv.svc.ReapSessions(0); n != 1 { // idle TTL 0 = reap everything
		t.Fatalf("reaped %d sessions, want 1", n)
	}
	if code, resp := post(t, srv, "/query", body); code != http.StatusNotFound || errCode(t, resp) != "unknown_session" {
		t.Errorf("query on reaped session = %d %q, want 404 unknown_session", code, errCode(t, resp))
	}
}

// The cursor-lifetime leak guard: N cursors opened and abandoned hold
// all admission slots (new queries time out in admission); the TTL
// reaper frees the slots and the executor goroutines.
func TestCursorExpiryFreesSlotsAndGoroutines(t *testing.T) {
	srv := testServer(t, service.Options{MaxInFlight: 2, QueryTimeout: 200 * time.Millisecond})
	baseline := runtime.NumGoroutine()

	for i := 0; i < 2; i++ {
		code, resp := post(t, srv, "/query", `{"lang":"cq","query":"Q(u, p, d) :- Visits(u, p, d)","cursor":true}`)
		if code != http.StatusOK {
			t.Fatalf("cursor %d: status %d (%v)", i, code, resp)
		}
	}
	if n := srv.cursorCount(); n != 2 {
		t.Fatalf("registry holds %d cursors, want 2", n)
	}
	// Both slots are held by abandoned cursors: a fresh query must time
	// out in admission.
	code, resp := post(t, srv, "/query", visitsScan)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("query with exhausted slots = %d (%v), want 504", code, resp)
	}

	if n := srv.reapCursors(0); n != 2 { // TTL 0 = everything idle is reaped
		t.Fatalf("reaped %d cursors, want 2", n)
	}
	// Slots are free again.
	if code, resp := post(t, srv, "/query", visitsScan); code != http.StatusOK {
		t.Fatalf("query after reap = %d (%v), want 200", code, resp)
	}
	if got := srv.svc.Snapshot().InFlight; got != 0 {
		t.Errorf("in-flight gauge = %d after reap, want 0", got)
	}

	// Executor goroutines (parstore scan workers held open by the
	// abandoned cursors) must drain back to the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Errorf("goroutines = %d after reap, baseline %d — executor leak", n, baseline)
	}
}

// --- write path ------------------------------------------------------------

// maintainedServer is testServer with the write path attached.
func maintainedServer(t *testing.T, opts service.Options) *server {
	t.Helper()
	cfg := datagen.MarketplaceConfig{
		Seed: 7, Users: 80, Products: 30, OrdersPerUser: 3,
		VisitsPerUser: 4, PrefsPerUser: 2, CartItemsPerUser: 2, ZipfS: 1.2,
	}
	m, err := scenario.New(cfg, scenario.Materialized)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Maintained(); err != nil {
		t.Fatal(err)
	}
	opts.Schema = scenario.LogicalSchema
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	return newServer(service.New(m.Sys, opts), opts.Registry)
}

func TestInsertDeleteEndpoints(t *testing.T) {
	srv := maintainedServer(t, service.Options{})

	code, resp := post(t, srv, "/insert", `{"relation":"Users","rows":[["u-w1","zed","nice"],["u-w2","yan","oslo"]]}`)
	if code != http.StatusOK {
		t.Fatalf("/insert status %d: %v", code, resp)
	}
	if resp["inserted"].(float64) != 2 {
		t.Fatalf("/insert response: %v", resp)
	}
	frags := resp["fragments"].(map[string]any)
	if fu := frags["FUsers"].(map[string]any); fu["added"].(float64) != 2 {
		t.Fatalf("FUsers delta: %v", frags)
	}

	// The written rows are queryable.
	code, qresp := post(t, srv, "/query", `{"lang":"cq","query":"Q(n) :- Users('u-w1', n, c)"}`)
	if code != http.StatusOK || len(qresp["rows"].([]any)) != 1 {
		t.Fatalf("query after insert: status %d resp %v", code, qresp)
	}

	code, resp = post(t, srv, "/delete", `{"relation":"Users","rows":[["u-w1","zed","nice"]]}`)
	if code != http.StatusOK || resp["deleted"].(float64) != 1 {
		t.Fatalf("/delete status %d: %v", code, resp)
	}
	code, qresp = post(t, srv, "/query", `{"lang":"cq","query":"Q(n) :- Users('u-w1', n, c)"}`)
	if code != http.StatusOK || len(qresp["rows"].([]any)) != 0 {
		t.Fatalf("query after delete: status %d resp %v", code, qresp)
	}
}

func TestWriteErrorMapping(t *testing.T) {
	srv := maintainedServer(t, service.Options{})

	code, resp := post(t, srv, "/insert", `{"relation":"Nope","rows":[["x"]]}`)
	if code != http.StatusNotFound || errCode(t, resp) != "unknown_relation" {
		t.Errorf("unknown relation: status %d code %q", code, errCode(t, resp))
	}
	code, resp = post(t, srv, "/insert", `{"relation":"Users","rows":[["too","short"]]}`)
	if code != http.StatusBadRequest || errCode(t, resp) != "bad_write" {
		t.Errorf("arity: status %d code %q", code, errCode(t, resp))
	}
	code, resp = post(t, srv, "/delete", `{"relation":"Users","rows":[["ghost","none","nowhere"]]}`)
	if code != http.StatusBadRequest || errCode(t, resp) != "bad_write" {
		t.Errorf("absent delete: status %d code %q", code, errCode(t, resp))
	}
	code, resp = post(t, srv, "/insert", `{"relation":"Users"}`)
	if code != http.StatusBadRequest || errCode(t, resp) != "bad_request" {
		t.Errorf("empty rows: status %d code %q", code, errCode(t, resp))
	}

	// A server whose system has no maintainer refuses writes with a
	// structured error.
	bare := testServer(t, service.Options{})
	code, resp = post(t, bare, "/insert", `{"relation":"Users","rows":[["a","b","c"]]}`)
	if code != http.StatusBadRequest || errCode(t, resp) != "writes_disabled" {
		t.Errorf("writes disabled: status %d code %q", code, errCode(t, resp))
	}
}

func TestNDJSONBatchIngest(t *testing.T) {
	srv := maintainedServer(t, service.Options{})
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, `{"relation":"Prefs","row":["u%05d","ingest","yes"]}`+"\n", 1+i)
	}
	sb.WriteString(`{"relation":"Users","row":["u-nd1","nd","oslo"]}` + "\n")

	req := httptest.NewRequest(http.MethodPost, "/insert", strings.NewReader(sb.String()))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body.String())
	}
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["inserted"].(float64) != 11 || resp["lines"].(float64) != 11 {
		t.Fatalf("ingest response: %v", resp)
	}

	// Bad line surfaces its line number as a structured 400.
	req = httptest.NewRequest(http.MethodPost, "/insert", strings.NewReader(`{"relation":"","row":[1]}`+"\n"))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad ingest line: status %d", w.Code)
	}
}

func TestWritesVisibleToOpenStatements(t *testing.T) {
	srv := maintainedServer(t, service.Options{})
	_, prep := post(t, srv, "/prepare", `{"lang":"cq","query":"Q(k, v) :- Prefs('u00001', k, v)"}`)
	stmt := int(prep["stmt"].(float64))

	exec := func() int {
		_, resp := post(t, srv, "/execute", fmt.Sprintf(`{"stmt":%d,"args":["u-fresh"]}`, stmt))
		return len(resp["rows"].([]any))
	}
	before := exec()
	if before != 0 {
		t.Fatalf("fresh user already has %d prefs", before)
	}
	if code, resp := post(t, srv, "/insert", `{"relation":"Prefs","rows":[["u-fresh","theme","dark"]]}`); code != http.StatusOK {
		t.Fatalf("insert: %v", resp)
	}
	if after := exec(); after != 1 {
		t.Fatalf("statement sees %d rows after write, want 1", after)
	}
}

// The chaos-admin satellite: /fault configures injectors over the wire,
// and injected failures map to 503 with the store_unavailable code.
func TestFaultAdminEndpoint(t *testing.T) {
	srv := testServer(t, service.Options{RetryBackoff: time.Millisecond})

	// GET lists one inert injector per registered store.
	req := httptest.NewRequest(http.MethodGet, "/fault", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var listing map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	faults, ok := listing["faults"].([]any)
	if !ok || len(faults) == 0 {
		t.Fatalf("GET /fault listing: %v", listing)
	}
	for _, f := range faults {
		if f.(map[string]any)["errorRate"].(float64) != 0 {
			t.Fatalf("injector not inert at start: %v", f)
		}
	}

	// Unknown store and missing store are structured 400s.
	if code, resp := post(t, srv, "/fault", `{"store":"nope","errorRate":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown store: status %d %v", code, resp)
	}
	if code, resp := post(t, srv, "/fault", `{"errorRate":1}`); code != http.StatusBadRequest {
		t.Fatalf("missing store: status %d %v", code, resp)
	}

	// Arm every store; queries now fail 503 with the typed code.
	if code, resp := post(t, srv, "/fault", `{"store":"*","errorRate":1,"seed":42}`); code != http.StatusOK {
		t.Fatalf("arm: status %d %v", code, resp)
	}
	code, resp := post(t, srv, "/query", visitsScan)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query under faults: status %d, want 503 (%v)", code, resp)
	}
	if got := errCode(t, resp); got != "store_unavailable" {
		t.Errorf("code = %q, want store_unavailable", got)
	}

	// Clear restores service; the snapshot remembers the injected count.
	if code, resp := post(t, srv, "/fault", `{"store":"*","clear":true}`); code != http.StatusOK {
		t.Fatalf("clear: status %d %v", code, resp)
	}
	if code, resp := post(t, srv, "/query", visitsScan); code != http.StatusOK {
		t.Fatalf("query after clear: status %d %v", code, resp)
	}
	req = httptest.NewRequest(http.MethodGet, "/fault", nil)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if err := json.Unmarshal(w.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, f := range listing["faults"].([]any) {
		total += f.(map[string]any)["injectedReads"].(float64)
	}
	if total == 0 {
		t.Errorf("no injected reads tallied across stores: %v", listing)
	}
}

// A store stalled past the query deadline maps to 504 with the
// store-attributed code (not the generic "timeout").
func TestStalledStoreMapsTo504(t *testing.T) {
	srv := testServer(t, service.Options{QueryTimeout: 30 * time.Millisecond})
	if code, resp := post(t, srv, "/fault", `{"store":"*","stallMs":2000}`); code != http.StatusOK {
		t.Fatalf("arm: status %d %v", code, resp)
	}
	start := time.Now()
	code, resp := post(t, srv, "/query", visitsScan)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled query took %v; stall not cancelled by deadline", elapsed)
	}
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%v)", code, resp)
	}
	if got := errCode(t, resp); got != "store_timeout" {
		t.Errorf("code = %q, want store_timeout", got)
	}
}

// An injected write fault maps to a typed 503, not a blanket 500: the
// write path classifies store-attributed failures like the read path.
func TestWriteFaultMapsTo503(t *testing.T) {
	srv := maintainedServer(t, service.Options{})
	if code, resp := post(t, srv, "/fault", `{"store":"pg","failNextWrites":1}`); code != http.StatusOK {
		t.Fatalf("arm: status %d %v", code, resp)
	}
	body := `{"relation":"Users","rows":[["u-faulted","verify","nice"]]}`
	code, resp := post(t, srv, "/insert", body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("insert under write fault: status %d, want 503 (%v)", code, resp)
	}
	if got := errCode(t, resp); got != "store_unavailable" {
		t.Errorf("code = %q, want store_unavailable", got)
	}
	// The one-shot budget is spent; the retry lands.
	if code, resp = post(t, srv, "/insert", body); code != http.StatusOK {
		t.Fatalf("insert after budget spent: status %d %v", code, resp)
	}
}

// Breaker state shows up in /stats once a store starts failing.
func TestStatsExposesBreakers(t *testing.T) {
	srv := testServer(t, service.Options{
		RetryBackoff: time.Millisecond, BreakerThreshold: 2, BreakerCooldown: time.Minute,
	})
	post(t, srv, "/fault", `{"store":"*","errorRate":1,"seed":7}`)
	for i := 0; i < 3; i++ {
		post(t, srv, "/query", visitsScan)
	}
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var stats map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	brk, ok := stats["breakers"].(map[string]any)
	if !ok || len(brk) == 0 {
		t.Fatalf("no breaker state in /stats: %v", stats)
	}
	open := false
	for _, st := range brk {
		if st.(map[string]any)["open"].(bool) {
			open = true
		}
	}
	if !open {
		t.Errorf("no breaker open after repeated failures: %v", brk)
	}
}

// A syntactically broken NDJSON line is a structured 400 attributed to
// its line number — never a 500.
func TestNDJSONIngestGarbageLine(t *testing.T) {
	srv := maintainedServer(t, service.Options{})
	body := `{"relation":"Prefs","row":["u00001","ok","yes"]}` + "\n" +
		`this is not json` + "\n"
	req := httptest.NewRequest(http.MethodPost, "/insert", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", w.Code, w.Body.String())
	}
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if code, _ := resp["error"].(map[string]any)["code"].(string); code != "bad_request" {
		t.Errorf("code = %q, want bad_request", code)
	}
}

func TestNDJSONIngestAttributesFailingLine(t *testing.T) {
	srv := maintainedServer(t, service.Options{})
	body := `{"relation":"Prefs","row":["u00001","ok","yes"]}` + "\n" +
		`{"relation":"Users","row":["too","short"]}` + "\n"
	req := httptest.NewRequest(http.MethodPost, "/insert", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	msg, _ := resp["error"].(map[string]any)["message"].(string)
	if !strings.Contains(msg, "line 2") {
		t.Errorf("failure not attributed to the offending record: %q", msg)
	}
}
