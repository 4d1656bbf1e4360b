package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/value"
)

// ErrInjected marks an artificially injected store failure. Callers
// classify injected faults as transient (retryable) via errors.Is.
var ErrInjected = errors.New("injected fault")

// StoreError attributes a failure to the store that produced it, so the
// mediator's degradation layer (retry, circuit breaking) can act per
// store. It unwraps to the underlying cause for errors.Is matching.
type StoreError struct {
	// Store is the failing engine instance's deployment name.
	Store string
	// Err is the underlying failure.
	Err error
}

func (e *StoreError) Error() string { return fmt.Sprintf("store %q: %v", e.Store, e.Err) }

// Unwrap supports errors.Is/As through the store attribution.
func (e *StoreError) Unwrap() error { return e.Err }

// FaultConfig is one store's fault policy. The zero value injects
// nothing.
type FaultConfig struct {
	// ErrorRate is the probability in [0,1] that a read request fails at
	// entry with an injected error.
	ErrorRate float64
	// WriteErrorRate is the probability in [0,1] that a write request
	// fails with an injected error.
	WriteErrorRate float64
	// Stall adds a fixed per-request service-time stall (on top of the
	// store's simulated latency). Stalls respect the request context.
	Stall time.Duration
	// Jitter adds a uniform random extra stall in [0, Jitter).
	Jitter time.Duration
	// FailAfterBatches, when positive, makes every read stream fail with
	// an injected error after delivering that many batches — errors land
	// mid-stream, past Open, where cursor plumbing must carry them
	// in-band.
	FailAfterBatches int
	// Seed, when non-zero, reseeds the injector's RNG for reproducible
	// chaos runs.
	Seed int64
}

// Fault is a per-store fault injector every substrate consults on each
// request. It simulates the failure modes of a real remote store —
// transient errors, stalls, mid-stream stream breaks — that the
// in-process substrates otherwise never exhibit. All methods are safe
// for concurrent use; the zero value is an inert injector.
type Fault struct {
	mu    sync.Mutex
	store string
	cfg   FaultConfig
	rng   *rand.Rand

	// One-shot deterministic failure budgets, for tests that need THE
	// next operation to fail (e.g. rollback-under-fault scenarios).
	failNextReads  atomic.Int64
	failNextWrites atomic.Int64

	injectedReads  atomic.Int64
	injectedWrites atomic.Int64
}

// Bind names the store the injector belongs to (set once at store
// construction; injected errors carry the name).
func (f *Fault) Bind(store string) {
	f.mu.Lock()
	f.store = store
	f.mu.Unlock()
}

// Configure replaces the fault policy.
func (f *Fault) Configure(cfg FaultConfig) {
	f.mu.Lock()
	f.cfg = cfg
	if cfg.Seed != 0 {
		f.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	f.mu.Unlock()
}

// Config returns the current fault policy.
func (f *Fault) Config() FaultConfig {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg
}

// Clear disables all injection (policy and one-shot budgets).
func (f *Fault) Clear() {
	f.mu.Lock()
	f.cfg = FaultConfig{}
	f.mu.Unlock()
	f.failNextReads.Store(0)
	f.failNextWrites.Store(0)
}

// FailNextReads makes exactly the next n read requests fail,
// independently of ErrorRate.
func (f *Fault) FailNextReads(n int) { f.failNextReads.Store(int64(n)) }

// FailNextWrites makes exactly the next n write requests fail,
// independently of WriteErrorRate.
func (f *Fault) FailNextWrites(n int) { f.failNextWrites.Store(int64(n)) }

// FaultSnapshot is a point-in-time view of an injector for admin
// surfaces.
type FaultSnapshot struct {
	Store             string
	Config            FaultConfig
	InjectedReads     int64
	InjectedWrites    int64
	PendingFailReads  int64
	PendingFailWrites int64
}

// Snapshot reports the injector's policy and tallies.
func (f *Fault) Snapshot() FaultSnapshot {
	f.mu.Lock()
	store, cfg := f.store, f.cfg
	f.mu.Unlock()
	return FaultSnapshot{
		Store:             store,
		Config:            cfg,
		InjectedReads:     f.injectedReads.Load(),
		InjectedWrites:    f.injectedWrites.Load(),
		PendingFailReads:  max64(0, f.failNextReads.Load()),
		PendingFailWrites: max64(0, f.failNextWrites.Load()),
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// errInjected builds the attributed injected error.
func (f *Fault) errInjected(op string) error {
	f.mu.Lock()
	store := f.store
	f.mu.Unlock()
	return &StoreError{Store: store, Err: fmt.Errorf("%w (%s)", ErrInjected, op)}
}

// takeBudget consumes one unit of a one-shot failure budget.
func takeBudget(c *atomic.Int64) bool {
	for {
		n := c.Load()
		if n <= 0 {
			return false
		}
		if c.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// roll draws from the seeded (or global) RNG under the lock.
func (f *Fault) roll() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng != nil {
		return f.rng.Float64()
	}
	return rand.Float64()
}

// BeforeRead is consulted by every store at read-request entry: it
// applies the configured stall (honouring ctx) and then decides whether
// to inject a failure. A non-nil return is the error the request must
// fail with.
func (f *Fault) BeforeRead(ctx context.Context) error {
	if takeBudget(&f.failNextReads) {
		f.injectedReads.Add(1)
		return f.errInjected("read")
	}
	f.mu.Lock()
	cfg := f.cfg
	var jitter time.Duration
	if cfg.Jitter > 0 {
		r := f.rng
		if r != nil {
			jitter = time.Duration(r.Int63n(int64(cfg.Jitter)))
		} else {
			jitter = time.Duration(rand.Int63n(int64(cfg.Jitter)))
		}
	}
	f.mu.Unlock()
	if d := cfg.Stall + jitter; d > 0 {
		if err := SimulateWait(ctx, d); err != nil {
			return err
		}
	}
	if cfg.ErrorRate > 0 && f.roll() < cfg.ErrorRate {
		f.injectedReads.Add(1)
		return f.errInjected("read")
	}
	return nil
}

// BeforeWrite is consulted by every store at write entry. Writes run on
// the maintenance path (no per-request context), so only errors — not
// stalls — are injected.
func (f *Fault) BeforeWrite() error {
	if takeBudget(&f.failNextWrites) {
		f.injectedWrites.Add(1)
		return f.errInjected("write")
	}
	f.mu.Lock()
	rate := f.cfg.WriteErrorRate
	f.mu.Unlock()
	if rate > 0 && f.roll() < rate {
		f.injectedWrites.Add(1)
		return f.errInjected("write")
	}
	return nil
}

// WrapBatch arms a read stream with the fail-after-N-batches policy: the
// returned iterator delivers cfg.FailAfterBatches batches and then fails
// with an injected error, exercising mid-stream error paths. With the
// policy unset the iterator passes through unchanged.
func (f *Fault) WrapBatch(it BatchIterator) BatchIterator {
	f.mu.Lock()
	n := f.cfg.FailAfterBatches
	f.mu.Unlock()
	if n <= 0 {
		return it
	}
	return &failAfterIterator{in: it, left: n, fault: f}
}

// failAfterIterator breaks a stream after a batch budget is spent.
type failAfterIterator struct {
	in    BatchIterator
	left  int
	fault *Fault
	done  bool
}

// NextBatch implements BatchIterator.
func (it *failAfterIterator) NextBatch(dst *value.Batch) (int, error) {
	if it.done {
		return 0, it.fault.errInjected("mid-stream")
	}
	if it.left <= 0 {
		it.done = true
		it.fault.injectedReads.Add(1)
		return 0, it.fault.errInjected("mid-stream")
	}
	n, err := it.in.NextBatch(dst)
	if err != nil || n == 0 {
		it.done = err != nil
		return n, err
	}
	it.left--
	return n, nil
}

// Close implements BatchIterator.
func (it *failAfterIterator) Close() { it.in.Close() }
