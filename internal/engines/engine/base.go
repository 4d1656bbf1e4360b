package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Base is the state every substrate shares: its instance name, operation
// counters, per-request latency histogram and latency model, and fault
// injector. Stores embed it and call Init from their constructor; Kind
// and Capabilities stay per store.
type Base struct {
	name     string
	counters Counters
	hist     obs.Histogram
	latNs    atomic.Int64
	fault    Fault
}

// Init names the store and binds its fault injector to that name, so
// injected errors are attributed to it.
func (b *Base) Init(name string) {
	b.name = name
	b.fault.Bind(name)
}

// Name implements Engine.
func (b *Base) Name() string { return b.name }

// Counters implements Engine.
func (b *Base) Counters() *Counters { return &b.counters }

// Fault implements Engine.
func (b *Base) Fault() *Fault { return &b.fault }

// LatencyHistogram implements Engine: the translate layer observes one
// sample per request (issue to stream end) into it, and the service
// layer exports it at /metrics.
func (b *Base) LatencyHistogram() *obs.Histogram { return &b.hist }

// SetRequestLatency configures the simulated per-request service time.
func (b *Base) SetRequestLatency(d time.Duration) { b.latNs.Store(int64(d)) }

// RequestLatency implements Engine: the configured per-request latency
// model, which the planner reads to scale per-store access costs.
func (b *Base) RequestLatency() time.Duration { return time.Duration(b.latNs.Load()) }

// Enter simulates read-request entry: the configured service latency,
// then the fault injector (stall, injected error), both honouring ctx. A
// non-nil return, attributed to the store, is the error the request must
// fail with. Stores call it before taking their lock, so an injected
// stall never blocks writers.
func (b *Base) Enter(ctx context.Context) error {
	err := SimulateWait(ctx, b.RequestLatency())
	if err == nil {
		err = b.fault.BeforeRead(ctx)
	}
	if err == nil {
		return nil
	}
	var se *StoreError
	if errors.As(err, &se) {
		return err
	}
	return &StoreError{Store: b.name, Err: err}
}
