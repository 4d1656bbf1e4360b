package engine

import "sync"

// Per-execution counter attribution. The store-global Counters of each
// engine keep running totals for the whole deployment; attributing the
// per-store work of ONE query by diffing global snapshots mis-charges
// other queries' work under concurrency. Instead, every execution carries
// an ExecCounters sink through the plan; counted store accesses fan each
// increment out to both the store's global counters and the execution's
// own per-store cell (see Tally), so concurrent queries report disjoint,
// exact splits.

// ExecCounters collects one execution's per-store operation counts. The
// zero value is not usable; create with NewExecCounters. A nil
// *ExecCounters is a valid "don't attribute" sink everywhere. Safe for
// concurrent use (parallel substrates fan accesses out internally).
type ExecCounters struct {
	mu sync.Mutex
	m  map[string]*Counters
}

// NewExecCounters returns an empty per-execution collector.
func NewExecCounters() *ExecCounters {
	return &ExecCounters{m: map[string]*Counters{}}
}

// For returns the execution's counter cell for a store, creating it on
// first use. A nil receiver returns nil (no attribution).
func (e *ExecCounters) For(store string) *Counters {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.m[store]
	if !ok {
		c = &Counters{}
		e.m[store] = c
	}
	return c
}

// Snapshot returns the per-store splits accumulated so far. Stores the
// execution never touched are absent. A nil receiver returns an empty map.
func (e *ExecCounters) Snapshot() map[string]CounterSnapshot {
	out := map[string]CounterSnapshot{}
	if e == nil {
		return out
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, c := range e.m {
		out[name] = c.Snapshot()
	}
	return out
}

// Tally fans counter increments out to a store's global counters plus an
// optional per-execution cell. Either sink may be nil.
type Tally struct {
	a, b *Counters
}

// NewTally pairs the store-global counters with a per-execution cell.
func NewTally(store, exec *Counters) Tally { return Tally{a: store, b: exec} }

// AddRequest records one delegated request round-trip in both sinks.
func (t Tally) AddRequest() {
	if t.a != nil {
		t.a.AddRequest()
	}
	if t.b != nil {
		t.b.AddRequest()
	}
}

// AddScan records one full-collection scan in both sinks.
func (t Tally) AddScan() {
	if t.a != nil {
		t.a.AddScan()
	}
	if t.b != nil {
		t.b.AddScan()
	}
}

// AddLookup records one indexed/key lookup in both sinks.
func (t Tally) AddLookup() {
	if t.a != nil {
		t.a.AddLookup()
	}
	if t.b != nil {
		t.b.AddLookup()
	}
}

// AddTuples records n tuples returned to the caller in both sinks.
func (t Tally) AddTuples(n int) {
	if t.a != nil {
		t.a.AddTuples(n)
	}
	if t.b != nil {
		t.b.AddTuples(n)
	}
}
