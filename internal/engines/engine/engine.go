// Package engine defines the service-provider interface shared by
// ESTOCADA's storage substrates (the stand-ins for Postgres, Redis,
// MongoDB, SOLR and Spark): the batch read protocol (BatchIterator — the
// only way rows leave a store), delegated conjunctive queries, capability
// flags, the fault injector, and per-store operation counters used to
// report the per-DMS performance split of the demo (paper §IV, step 3).
package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/value"
)

// Capability is a bit mask describing what a store can evaluate natively.
// The rewriting translation step (paper §III, "Making rewritings
// executable") uses these to decide how much of a query each store can be
// delegated; the rest runs in ESTOCADA's own execution engine.
type Capability uint32

const (
	// CapScan: the store can enumerate a whole collection.
	CapScan Capability = 1 << iota
	// CapKeyLookup: the store can fetch by exact key (hash access).
	CapKeyLookup
	// CapFilter: the store applies equality filters natively.
	CapFilter
	// CapProject: the store projects columns/paths natively.
	CapProject
	// CapJoin: the store evaluates joins natively (relational, parallel).
	CapJoin
	// CapFullText: the store answers keyword containment queries.
	CapFullText
	// CapNested: the store materializes nested relations natively.
	CapNested
	// CapParallel: the store evaluates delegated work over partitions in
	// parallel.
	CapParallel
)

// Has reports whether all bits of want are present.
func (c Capability) Has(want Capability) bool { return c&want == want }

// Engine is the minimal surface every substrate exposes to the mediator.
type Engine interface {
	// Name is the deployment-unique instance name (e.g. "pg-main").
	Name() string
	// Kind is the data-model family: "relational", "keyvalue", "document",
	// "fulltext", "parallel".
	Kind() string
	// Capabilities reports what the store evaluates natively.
	Capabilities() Capability
	// Counters exposes the store's operation counters.
	Counters() *Counters
	// Fault exposes the store's fault injector (chaos testing).
	Fault() *Fault
	// LatencyHistogram records one sample per request, issue to stream
	// end.
	LatencyHistogram() *obs.Histogram
	// RequestLatency is the simulated per-request service time.
	RequestLatency() time.Duration
}

// Counters tallies the work a store performed; the demo reports these split
// per DMS and for the ESTOCADA runtime. All methods are safe for concurrent
// use.
type Counters struct {
	requests int64
	scans    int64
	lookups  int64
	tuples   int64
}

// AddRequest records one delegated request round-trip.
func (c *Counters) AddRequest() { atomic.AddInt64(&c.requests, 1) }

// AddScan records one full-collection scan.
func (c *Counters) AddScan() { atomic.AddInt64(&c.scans, 1) }

// AddLookup records one indexed/key lookup.
func (c *Counters) AddLookup() { atomic.AddInt64(&c.lookups, 1) }

// AddTuples records n tuples returned to the caller.
func (c *Counters) AddTuples(n int) { atomic.AddInt64(&c.tuples, int64(n)) }

// Snapshot returns a point-in-time copy. The four loads are individually
// atomic but not one transaction: a concurrent writer can land between
// them, so a snapshot may mix a store's pre- and post-operation counts
// (e.g. a request counted whose tuples are not yet). Deltas computed via
// Sub between two snapshots therefore stay non-negative per field but may
// briefly disagree across fields; consumers (metrics exposition, /stats)
// tolerate this. See Reset for the only torn-to-zero window.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Requests: atomic.LoadInt64(&c.requests),
		Scans:    atomic.LoadInt64(&c.scans),
		Lookups:  atomic.LoadInt64(&c.lookups),
		Tuples:   atomic.LoadInt64(&c.tuples),
	}
}

// Reset zeroes the counters. A Snapshot racing a Reset can observe a mix
// of zeroed and pre-reset fields, and Prometheus counters derived from
// these values would go backwards — which scrapers interpret as a process
// restart. Audit (PR 7): the only Reset caller in the tree is a unit test
// (engine_test.go); no production path resets live counters, so the
// torn-to-zero window is documented rather than locked against. Callers
// adding a production Reset must quiesce readers first or switch the
// exposition to per-epoch deltas.
func (c *Counters) Reset() {
	atomic.StoreInt64(&c.requests, 0)
	atomic.StoreInt64(&c.scans, 0)
	atomic.StoreInt64(&c.lookups, 0)
	atomic.StoreInt64(&c.tuples, 0)
}

// CounterSnapshot is an immutable view of Counters.
type CounterSnapshot struct {
	Requests int64 `json:"requests"`
	Scans    int64 `json:"scans"`
	Lookups  int64 `json:"lookups"`
	Tuples   int64 `json:"tuples"`
}

func (s CounterSnapshot) String() string {
	return fmt.Sprintf("req=%d scans=%d lookups=%d tuples=%d",
		s.Requests, s.Scans, s.Lookups, s.Tuples)
}

// Sub returns the per-field difference s - o (work done since snapshot o).
func (s CounterSnapshot) Sub(o CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		Requests: s.Requests - o.Requests,
		Scans:    s.Scans - o.Scans,
		Lookups:  s.Lookups - o.Lookups,
		Tuples:   s.Tuples - o.Tuples,
	}
}

// EqFilter is an equality predicate on one column position.
type EqFilter struct {
	Col int
	Val value.Value
}

// MatchAll reports whether a tuple satisfies all filters.
//
//lint:hot
func MatchAll(t value.Tuple, filters []EqFilter) bool {
	for _, f := range filters {
		if f.Col < 0 || f.Col >= len(t) || !value.Equal(t[f.Col], f.Val) {
			return false
		}
	}
	return true
}
