package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 9},                // 1000µs → floor(log2)=9
		{time.Second, 19},                    // 1e6µs → floor(log2)=19
		{10 * time.Minute, NumBuckets - 1},   // past the last bound → +Inf
		{-5 * time.Millisecond, 0},           // negative clamps to zero
		{200 * time.Second, NumBuckets - 1},  // 2e8µs
		{1000 * time.Second, NumBuckets - 1}, // way past
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.bucket && c.d >= 0 {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.bucket)
		}
		h.Observe(c.d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Millisecond) // must not panic
	if h.Count() != 0 {
		t.Fatal("nil histogram count")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond) // all in one bucket
	}
	q := h.Snapshot().Quantile(0.5)
	// bucket 9 spans (512µs, 1024µs]
	if q < 0.0005 || q > 0.0011 {
		t.Fatalf("p50 = %g, want ~1ms", q)
	}
	if (HistogramSnapshot{}).Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestObserveAllocFree(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("Observe allocates %v per call", n)
	}
	reg := NewRegistry()
	vec := reg.NewHistogram("x_seconds", "help", "fp")
	vec.With("warm")
	if n := testing.AllocsPerRun(1000, func() { vec.Get1("warm").Observe(time.Millisecond) }); n != 0 {
		t.Fatalf("Get1+Observe allocates %v per call", n)
	}
	// Observability switched off: an uninstrumented store's nil histogram
	// and the context probes every request makes on a bare context.
	var off *Histogram
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		off.Observe(time.Microsecond)
		if ProfileEnabled(ctx) || RequestID(ctx) != "" {
			t.Fatal("bare context carries a profile flag or request ID")
		}
	}); n != 0 {
		t.Fatalf("disabled-observability primitives allocate %v per call", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("estocada_widgets_total", "Widgets made.", "kind")
	c.With("round").Add(3)
	c.With(`we"ird\name`).Inc() // label value needing escapes
	g := reg.NewGauge("estocada_depth", "Queue depth.")
	g.With().Set(7)
	h := reg.NewHistogram("estocada_req_seconds", "Latency.", "store")
	h.With("pg").Observe(3 * time.Millisecond)
	h.With("pg").Observe(70 * time.Second)
	h.With("redis").Observe(10 * time.Microsecond)
	reg.GaugeFunc("estocada_live", "Collector gauge.", []string{"part"}, func(emit func([]string, float64)) {
		emit([]string{"a"}, 1)
		emit([]string{"b"}, 2.5)
	})
	reg.CounterFunc("estocada_hits_total", "Collector counter.", nil, func(emit func([]string, float64)) {
		emit(nil, 42)
	})

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		`estocada_widgets_total{kind="round"} 3`,
		`estocada_widgets_total{kind="we\"ird\\name"} 1`,
		"estocada_depth 7",
		`estocada_req_seconds_bucket{store="pg",le="+Inf"} 2`,
		`estocada_req_seconds_count{store="pg"} 2`,
		`estocada_live{part="b"} 2.5`,
		"estocada_hits_total 42",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

func TestHistogramVecCardinalityCap(t *testing.T) {
	reg := NewRegistry()
	vec := reg.NewHistogram("fp_seconds", "h", "fingerprint")
	vec.SetMaxSeries(3)
	for i := 0; i < 10; i++ {
		vec.Get1(strings.Repeat("q", i+1)).Observe(time.Millisecond)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if !strings.Contains(text, `fingerprint="_other"`) {
		t.Fatalf("overflow series missing:\n%s", text)
	}
	if n := strings.Count(text, "fp_seconds_count"); n != 4 { // 3 capped + overflow
		t.Fatalf("series count = %d, want 4", n)
	}
	// Overflow absorbed the 7 spilled observations.
	if !strings.Contains(text, `fp_seconds_count{fingerprint="_other"} 7`) {
		t.Fatalf("overflow count wrong:\n%s", text)
	}
}

func TestHistogramAttach(t *testing.T) {
	reg := NewRegistry()
	vec := reg.NewHistogram("store_seconds", "h", "store")
	var own Histogram
	own.Observe(time.Millisecond)
	vec.Attach(&own, "kv")
	own.Observe(2 * time.Millisecond)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `store_seconds_count{store="kv"} 2`) {
		t.Fatalf("attached histogram not exported:\n%s", sb.String())
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	bad := []string{
		"no_type_sample 1",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1",
		"# TYPE c counter\nc -1",
		"# TYPE g gauge\ng{x=\"unterminated} 1",
		"# BAD comment",
	}
	for _, text := range bad {
		if err := ValidateExposition(text); err == nil {
			t.Errorf("expected rejection of %q", text)
		}
	}
}

func TestTrace(t *testing.T) {
	origin := time.Now()
	tr := NewTrace("POST /query", TraceID{}, origin, 4)
	if tr.ID().IsZero() || tr.Root().IsZero() {
		t.Fatal("NewTrace must generate non-zero trace and root span IDs")
	}
	parse := tr.Add("parse", tr.Root(), origin, time.Millisecond)
	if parse.IsZero() {
		t.Fatal("Add returned zero span ID")
	}
	exec := tr.Add("execute", tr.Root(), origin.Add(2*time.Millisecond), 5*time.Millisecond)
	tr.Add("fetch", exec, origin.Add(3*time.Millisecond), time.Millisecond)
	before := SpansDropped()
	for i := 0; i < 5; i++ {
		tr.Add("overflow", tr.Root(), origin, time.Microsecond)
	}
	if tr.Len() != 4 {
		t.Fatalf("spans = %d, want capped at 4", tr.Len())
	}
	if tr.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", tr.Dropped())
	}
	if got := SpansDropped() - before; got != 4 {
		t.Fatalf("process-wide dropped delta = %d, want 4", got)
	}
	tr.SetError("boom")
	tr.SetError("later") // first error wins
	tr.Finish(9 * time.Millisecond)

	snap := tr.Snapshot()
	if snap.TraceID != tr.ID().String() || snap.Error != "boom" || snap.DurUs != 9000 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Spans) != 5 { // synthesized root + 4 recorded
		t.Fatalf("snapshot spans = %d, want 5", len(snap.Spans))
	}
	root := snap.Spans[0]
	if root.Name != "POST /query" || root.ID != tr.Root() || !root.Parent.IsZero() {
		t.Fatalf("root span = %+v", root)
	}
	if snap.Spans[1].Name != "parse" || snap.Spans[1].Parent != tr.Root() ||
		snap.Spans[1].Dur != time.Millisecond {
		t.Fatalf("span 1 = %+v", snap.Spans[1])
	}
	if snap.Spans[2].Offset != 2*time.Millisecond {
		t.Fatalf("span 2 offset = %v", snap.Spans[2].Offset)
	}
	if snap.Spans[3].Parent != exec {
		t.Fatalf("span 3 parent = %v, want %v", snap.Spans[3].Parent, exec)
	}

	// Nil receiver: every method is a safe no-op.
	var nilTr *Trace
	nilTr.Add("x", SpanID{}, origin, time.Second)
	nilTr.SetError("x")
	nilTr.Finish(time.Second)
	if nilTr.Len() != 0 || !nilTr.ID().IsZero() || nilTr.Error() != "" {
		t.Fatal("nil trace must record nothing")
	}
}

func TestTraceRemoteParentAndJSON(t *testing.T) {
	origin := time.Now()
	tr := NewTrace("q", TraceID{}, origin, 0)
	remote := NewSpanID()
	tr.SetRemoteParent(remote)
	tr.SetRequestID("req-7")
	tr.Add("phase", tr.Root(), origin, 3*time.Millisecond)
	tr.Finish(4 * time.Millisecond)
	snap := tr.Snapshot()
	if snap.Spans[0].Parent != remote {
		t.Fatalf("root parent = %v, want remote %v", snap.Spans[0].Parent, remote)
	}
	if snap.RequestID != "req-7" {
		t.Fatalf("requestID = %q", snap.RequestID)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	js := string(b)
	for _, want := range []string{
		`"traceId":"` + tr.ID().String() + `"`,
		`"requestId":"req-7"`,
		`"spanId":"` + tr.Root().String() + `"`,
		`"parentId":"` + remote.String() + `"`,
		`"durUs":3000`,
	} {
		if !strings.Contains(js, want) {
			t.Fatalf("snapshot JSON missing %s in %s", want, js)
		}
	}
	// Flat spans (no IDs) keep the compact legacy shape.
	flat, err := json.Marshal(Span{Name: "parse", Dur: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if string(flat) != `{"name":"parse","offsetUs":0,"durUs":1000}` {
		t.Fatalf("flat span JSON = %s", flat)
	}
}

func TestTraceparent(t *testing.T) {
	tc, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if tc.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" ||
		tc.SpanID.String() != "b7ad6b7169203331" || !tc.Sampled {
		t.Fatalf("parsed = %+v", tc)
	}
	if tc.String() != "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01" {
		t.Fatalf("round trip = %s", tc.String())
	}
	if got := (TraceContext{TraceID: tc.TraceID, SpanID: tc.SpanID}).String(); !strings.HasSuffix(got, "-00") {
		t.Fatalf("unsampled flags = %s", got)
	}
	bad := []string{
		"",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",      // short
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",   // zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",   // zero span
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01",   // hex
		"00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // delimiter
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x", // long
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted malformed traceparent %q", h)
		}
	}
}

func TestTraceRing(t *testing.T) {
	ring := NewTraceRing(3, 2, 50*time.Millisecond)
	mk := func(name string, dur time.Duration, errMsg string) *Trace {
		tr := NewTrace(name, TraceID{}, time.Now(), 0)
		tr.SetError(errMsg)
		tr.Finish(dur)
		return tr
	}
	errTr := mk("err", time.Millisecond, "boom")
	if !ring.Offer(errTr) {
		t.Fatal("errored trace must always be kept")
	}
	slowTr := mk("slow", 60*time.Millisecond, "")
	if !ring.Offer(slowTr) {
		t.Fatal("slow trace must always be kept")
	}
	// Fast successes keep 1-in-2: exactly half of these survive.
	kept := 0
	for i := 0; i < 10; i++ {
		if ring.Offer(mk("fast", time.Millisecond, "")) {
			kept++
		}
	}
	if kept != 5 {
		t.Fatalf("kept %d of 10 fast traces at keepEvery=2, want 5", kept)
	}
	got := ring.Traces()
	if len(got) != 3 {
		t.Fatalf("ring holds %d traces, want capacity 3", len(got))
	}
	if got[0].Snapshot().Name != "fast" {
		t.Fatalf("newest trace = %q, want fast", got[0].Snapshot().Name)
	}
	if ring.Get(errTr.ID().String()) != nil {
		t.Fatal("evicted trace still retrievable")
	}
	id := got[0].ID().String()
	if ring.Get(id) != got[0] {
		t.Fatalf("Get(%s) did not return the retained trace", id)
	}
	if ring.Get("nope") != nil {
		t.Fatal("Get of unknown ID must return nil")
	}
	var nilRing *TraceRing
	if nilRing.Offer(errTr) || nilRing.Get("x") != nil || nilRing.Traces() != nil {
		t.Fatal("nil ring must be inert")
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("generated zero trace ID")
		}
		if seen[id.String()] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id.String()] = true
	}
}

func TestContextCarriers(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" || ProfileEnabled(ctx) || TraceFrom(ctx) != nil {
		t.Fatal("zero-value context should carry nothing")
	}
	ctx = WithRequestID(ctx, "req-1")
	ctx = WithProfile(ctx)
	tr := NewTrace("q", TraceID{}, time.Now(), 0)
	ctx = WithTrace(ctx, tr)
	if RequestID(ctx) != "req-1" || !ProfileEnabled(ctx) || TraceFrom(ctx) != tr {
		t.Fatal("carriers lost")
	}
	if WithTrace(ctx, nil) != ctx {
		t.Fatal("WithTrace(nil) must return the context unchanged")
	}
	if RequestID(nil) != "" || ProfileEnabled(nil) || TraceFrom(nil) != nil {
		t.Fatal("nil context must be safe")
	}
}

func TestProcessMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterProcessMetrics(r, time.Now().Add(-2*time.Second))
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := ValidateExposition(text); err != nil {
		t.Fatalf("process metrics exposition invalid: %v", err)
	}
	for _, want := range []string{
		"estocada_build_info{go_version=",
		"estocada_uptime_seconds ",
		"estocada_goroutines ",
		"estocada_trace_spans_dropped_total ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %s:\n%s", want, text)
		}
	}
}

func TestCounterVecGet1AndCap(t *testing.T) {
	r := NewRegistry()
	vec := r.NewCounter("test_fp_total", "per-fingerprint", "fingerprint")
	vec.SetMaxSeries(2)
	vec.Get1("a").Inc()
	vec.Get1("b").Add(2)
	vec.Get1("c").Inc() // over cap: collapses to _other
	vec.Get1("d").Inc()
	if vec.Get1("a").Value() != 1 || vec.Get1("b").Value() != 2 {
		t.Fatal("existing series lost")
	}
	if got := vec.With(overflowLabel).Value(); got != 2 {
		t.Fatalf("_other = %d, want 2", got)
	}
	if vec.Get1("a") != vec.With("a") {
		t.Fatal("Get1 and With must resolve the same series")
	}
}
