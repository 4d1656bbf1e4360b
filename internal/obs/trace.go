package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSpans is the per-trace span capacity when the owner names
// none. Spans past a trace's capacity are dropped (never reallocated):
// the trace stays bounded under a pathological fan-out and the drop is
// visible — per trace through Dropped, process-wide through SpansDropped
// and the estocada_trace_spans_dropped_total counter.
const DefaultMaxSpans = 256

// spansDropped counts spans dropped at trace capacity, process-wide.
var spansDropped atomic.Uint64

// SpansDropped returns the process-wide count of spans dropped because
// their trace was at capacity.
func SpansDropped() uint64 { return spansDropped.Load() }

// TraceID is a W3C trace-context trace identifier (16 bytes, rendered as
// 32 lowercase hex digits).
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID is a W3C trace-context span identifier (8 bytes, rendered as 16
// lowercase hex digits).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// idState drives span/trace ID generation: a splitmix64 sequence over an
// atomic counter, seeded once from crypto/rand. One atomic add and a few
// multiplies per ID — no locks, no syscalls on the request path.
var idState atomic.Uint64

func init() {
	var b [8]byte
	// crypto/rand never fails on supported platforms; if it somehow
	// returned zeros the counter still advances, so IDs stay unique
	// within the process (correlation, not security, is the goal).
	_, _ = crand.Read(b[:])
	idState.Store(binary.LittleEndian.Uint64(b[:]))
}

func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // the all-zero ID is invalid per the W3C grammar
	}
	return x
}

// NewTraceID generates a fresh non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], nextID())
	binary.BigEndian.PutUint64(id[8:], nextID())
	return id
}

// NewSpanID generates a fresh non-zero span ID.
func NewSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], nextID())
	return id
}

// Span is one named timed region of a request: a node of the trace tree,
// linked to its parent by span ID (a zero Parent marks a root-level
// span).
type Span struct {
	Name   string
	ID     SpanID
	Parent SpanID
	// Offset is the span's start relative to the trace origin.
	Offset time.Duration
	Dur    time.Duration
}

// MarshalJSON renders durations in microseconds and IDs as hex, omitting
// zero IDs (flat spans, e.g. slow-log phase breakdowns, carry none).
func (s Span) MarshalJSON() ([]byte, error) {
	if s.ID.IsZero() && s.Parent.IsZero() {
		return fmt.Appendf(nil, `{"name":%q,"offsetUs":%d,"durUs":%d}`,
			s.Name, s.Offset.Microseconds(), s.Dur.Microseconds()), nil
	}
	return fmt.Appendf(nil, `{"name":%q,"spanId":%q,"parentId":%q,"offsetUs":%d,"durUs":%d}`,
		s.Name, s.ID.String(), s.Parent.String(), s.Offset.Microseconds(), s.Dur.Microseconds()), nil
}

// Trace is one request's hierarchical span recorder: a bounded,
// mutex-guarded span list under one trace ID, with a synthesized root
// span every recorded span (directly or transitively) parents to.
// Recording is cheap — one short critical section appending by value —
// and capacity-bounded: spans past the configured maximum are counted,
// not stored. A nil *Trace is valid everywhere and records nothing, so
// call sites thread it unconditionally.
//
// A Trace may outlive the request that created it (the trace ring keeps
// sampled traces; detached cursors keep recording into theirs across
// /fetch pages), so all methods are safe for concurrent use.
type Trace struct {
	id   TraceID
	root SpanID
	t0   time.Time

	mu        sync.Mutex
	name      string
	requestID string
	remote    SpanID // parent span from an ingested traceparent
	spans     []Span
	max       int
	dropped   uint64
	err       string
	dur       time.Duration
}

// NewTrace starts a trace. A zero id generates a fresh one; maxSpans <= 0
// uses DefaultMaxSpans. The name labels the synthesized root span (e.g.
// "POST /query").
func NewTrace(name string, id TraceID, origin time.Time, maxSpans int) *Trace {
	if id.IsZero() {
		id = NewTraceID()
	}
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Trace{id: id, root: NewSpanID(), t0: origin, name: name, max: maxSpans}
}

// ID returns the trace identifier.
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Root returns the root span's ID — the parent for spans recorded
// directly under the request.
func (t *Trace) Root() SpanID {
	if t == nil {
		return SpanID{}
	}
	return t.root
}

// SetRemoteParent links the root span under a caller's span (from an
// ingested traceparent header).
func (t *Trace) SetRemoteParent(p SpanID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.remote = p
	t.mu.Unlock()
}

// SetRequestID attaches the request correlation ID.
func (t *Trace) SetRequestID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.requestID = id
	t.mu.Unlock()
}

// RequestID returns the attached request correlation ID, or "".
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requestID
}

// Add records a completed span under the given parent (use Root for
// request-level spans) and returns its generated ID. Past the trace's
// span capacity the span is dropped, counted, and the zero ID returned.
// Nil-receiver safe (a no-op).
func (t *Trace) Add(name string, parent SpanID, start time.Time, d time.Duration) SpanID {
	if t == nil {
		return SpanID{}
	}
	var off time.Duration
	if !t.t0.IsZero() && start.After(t.t0) {
		off = start.Sub(t.t0)
	}
	t.mu.Lock()
	if len(t.spans) >= t.max {
		t.dropped++
		t.mu.Unlock()
		spansDropped.Add(1)
		return SpanID{}
	}
	id := NewSpanID()
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Offset: off, Dur: d})
	t.mu.Unlock()
	return id
}

// SetError marks the trace failed (first error wins). An errored trace is
// always retained by the tail-sampling ring.
func (t *Trace) SetError(msg string) {
	if t == nil || msg == "" {
		return
	}
	t.mu.Lock()
	if t.err == "" {
		t.err = msg
	}
	t.mu.Unlock()
}

// Error returns the recorded error, or "".
func (t *Trace) Error() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Finish stamps the root span's total duration (the request's end-to-end
// wall time).
func (t *Trace) Finish(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dur = d
	t.mu.Unlock()
}

// Duration returns the finished root duration (zero before Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dur
}

// Dropped returns how many spans this trace dropped at capacity.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the recorded span count (the synthesized root excluded).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// TraceSnapshot is a point-in-time JSON-ready copy of a trace. Spans[0]
// is the synthesized root span; every other span parents to it directly
// or through another span.
type TraceSnapshot struct {
	TraceID      string    `json:"traceId"`
	Name         string    `json:"name"`
	RequestID    string    `json:"requestId,omitempty"`
	Start        time.Time `json:"start"`
	DurUs        int64     `json:"durUs"`
	Error        string    `json:"error,omitempty"`
	DroppedSpans uint64    `json:"droppedSpans,omitempty"`
	Spans        []Span    `json:"spans"`
}

// Snapshot copies the trace for rendering. The root span is synthesized
// first (parented under the remote caller's span when one was ingested).
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]Span, 0, len(t.spans)+1)
	spans = append(spans, Span{Name: t.name, ID: t.root, Parent: t.remote, Dur: t.dur})
	spans = append(spans, t.spans...)
	return TraceSnapshot{
		TraceID:      t.id.String(),
		Name:         t.name,
		RequestID:    t.requestID,
		Start:        t.t0,
		DurUs:        t.dur.Microseconds(),
		Error:        t.err,
		DroppedSpans: t.dropped,
		Spans:        spans,
	}
}
