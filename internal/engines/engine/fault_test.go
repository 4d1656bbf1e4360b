package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/value"
)

// The satellite guard: a query cancelled while a store stall is in
// flight must return promptly with the context's error, not wait out
// the stall.
func TestWaitCancelledPromptlyUnderLongStall(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := SimulateWait(ctx, 30*time.Second)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled wait took %v; stall not cut short", elapsed)
	}
}

func TestWaitNilContextAndZeroDuration(t *testing.T) {
	if err := SimulateWait(nil, 0); err != nil {
		t.Fatalf("zero latency: %v", err)
	}
	if err := SimulateWait(nil, 50*time.Microsecond); err != nil {
		t.Fatalf("nil ctx spin: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := SimulateWait(ctx, 50*time.Microsecond); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v, want Canceled", err)
	}
}

func TestFaultStallRespectsContext(t *testing.T) {
	var f Fault
	f.Bind("pg")
	f.Configure(FaultConfig{Stall: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := f.BeforeRead(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled read took %v", elapsed)
	}
}

func TestFaultOneShotBudgets(t *testing.T) {
	var f Fault
	f.Bind("redis")
	f.FailNextReads(2)
	for i := 0; i < 2; i++ {
		err := f.BeforeRead(context.Background())
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d: err = %v, want ErrInjected", i, err)
		}
		var se *StoreError
		if !errors.As(err, &se) || se.Store != "redis" {
			t.Fatalf("read %d: failure not attributed: %v", i, err)
		}
	}
	if err := f.BeforeRead(context.Background()); err != nil {
		t.Fatalf("budget not exhausted: %v", err)
	}

	f.FailNextWrites(1)
	if err := f.BeforeWrite(); !errors.Is(err, ErrInjected) {
		t.Fatalf("write: err = %v, want ErrInjected", err)
	}
	if err := f.BeforeWrite(); err != nil {
		t.Fatalf("write budget not exhausted: %v", err)
	}

	snap := f.Snapshot()
	if snap.InjectedReads != 2 || snap.InjectedWrites != 1 {
		t.Fatalf("snapshot tallies = %d/%d, want 2/1", snap.InjectedReads, snap.InjectedWrites)
	}
}

func TestFaultErrorRateDeterministicWithSeed(t *testing.T) {
	var f Fault
	f.Bind("mongo")
	f.Configure(FaultConfig{ErrorRate: 0.5, Seed: 99})
	failures := 0
	for i := 0; i < 200; i++ {
		if err := f.BeforeRead(context.Background()); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error class: %v", err)
			}
			failures++
		}
	}
	if failures < 60 || failures > 140 {
		t.Fatalf("failures = %d of 200 at rate 0.5", failures)
	}
	f.Clear()
	if err := f.BeforeRead(context.Background()); err != nil {
		t.Fatalf("cleared injector still fails: %v", err)
	}
}

// sliceBatches yields canned batches for the mid-stream wrapper test.
type sliceBatches struct {
	rows []value.Tuple
	pos  int
}

func (s *sliceBatches) NextBatch(dst *value.Batch) (int, error) {
	dst.Reset()
	n := 0
	for s.pos < len(s.rows) && n < 2 {
		dst.Append(s.rows[s.pos])
		s.pos++
		n++
	}
	return n, nil
}

func (s *sliceBatches) Close() {}

func TestWrapBatchFailsMidStream(t *testing.T) {
	var f Fault
	f.Bind("spark")
	f.Configure(FaultConfig{FailAfterBatches: 2})
	rows := []value.Tuple{
		value.TupleOf("a"), value.TupleOf("b"), value.TupleOf("c"),
		value.TupleOf("d"), value.TupleOf("e"), value.TupleOf("f"),
	}
	it := f.WrapBatch(&sliceBatches{rows: rows})
	defer it.Close()
	var b value.Batch
	got := 0
	var err error
	for {
		var n int
		n, err = it.NextBatch(&b)
		if err != nil || n == 0 {
			break
		}
		got += n
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("stream ended with %v after %d rows, want injected mid-stream error", err, got)
	}
	if got != 4 {
		t.Fatalf("delivered %d rows before the break, want 4 (2 batches of 2)", got)
	}
	var se *StoreError
	if !errors.As(err, &se) || se.Store != "spark" {
		t.Fatalf("mid-stream failure not attributed: %v", err)
	}
}

func TestWrapBatchPassThroughWhenUnset(t *testing.T) {
	var f Fault
	in := &sliceBatches{}
	if out := f.WrapBatch(in); out != BatchIterator(in) {
		t.Fatal("inert injector must not wrap the stream")
	}
}

func TestEnterRequestAttributesStore(t *testing.T) {
	var b Base
	b.Init("solr")
	b.SetRequestLatency(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := b.Enter(ctx)
	var se *StoreError
	if !errors.As(err, &se) || se.Store != "solr" {
		t.Fatalf("latency timeout not attributed to store: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("underlying cause lost: %v", err)
	}
}
