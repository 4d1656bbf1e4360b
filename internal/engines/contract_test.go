// Package engines_test holds the store contract: the checks every read of
// every substrate must pass, written once over a table of reads instead of
// once per store.
package engines_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/engines/docstore"
	"repro/internal/engines/engine"
	"repro/internal/engines/kvstore"
	"repro/internal/engines/parstore"
	"repro/internal/engines/relstore"
	"repro/internal/engines/textstore"
	"repro/internal/value"
)

// store is what the contract needs of a substrate beyond engine.Engine.
type store interface {
	engine.Engine
	SetRequestLatency(time.Duration)
}

// openFn issues one read against a populated store. Every read in the
// table returns at least one row.
type openFn func(ctx context.Context, extra *engine.Counters) (engine.BatchIterator, error)

// scanRows is large enough that a parstore partition scan cannot finish
// into its merge channel: workers are still blocked on a send when the
// consumer closes after one batch.
const scanRows = 10_000

func relUsers(t *testing.T) *relstore.Store {
	t.Helper()
	s := relstore.New("pg")
	must(t, create(s.CreateTable("users", "uid", "city")))
	must(t, create(s.CreateTable("orders", "oid", "uid")))
	for i := 0; i < 600; i++ {
		uid := fmt.Sprintf("u%03d", i)
		must(t, s.Insert("users", value.TupleOf(uid, "paris")))
		must(t, s.Insert("orders", value.TupleOf(i, uid)))
	}
	must(t, s.CreateIndex("orders", "uid"))
	return s
}

func parVisits(t *testing.T) *parstore.Store {
	t.Helper()
	s := parstore.New("spark", 4)
	must(t, create(s.CreateTable("visits", "uid", "uid", "pid")))
	must(t, create(s.CreateTable("buys", "uid", "uid", "pid")))
	rows := make([]value.Tuple, scanRows)
	for i := range rows {
		rows[i] = value.TupleOf(fmt.Sprintf("u%05d", i), i%7)
	}
	must(t, s.InsertMany("visits", rows))
	must(t, s.InsertMany("buys", rows[:50]))
	must(t, s.CreateIndex("buys", "pid"))
	return s
}

var joinUP = engine.DQuery{
	Atoms: []engine.DAtom{
		{Collection: "buys", Terms: []engine.DTerm{engine.DVar("u"), engine.DConst(value.Int(3))}},
		{Collection: "visits", Terms: []engine.DTerm{engine.DVar("u"), engine.DVar("p")}},
	},
	Out: []string{"u", "p"},
}

// reads lists every store read that returns a BatchIterator.
var reads = []struct {
	name  string
	setup func(t *testing.T) (store, openFn)
}{
	{"relstore.SelectBatchCounted", func(t *testing.T) (store, openFn) {
		s := relUsers(t)
		return s, func(ctx context.Context, extra *engine.Counters) (engine.BatchIterator, error) {
			return s.SelectBatchCounted(ctx, "users", []engine.EqFilter{{Col: 1, Val: value.Str("paris")}}, []int{0}, extra)
		}
	}},
	{"relstore.QueryBatchCounted", func(t *testing.T) (store, openFn) {
		s := relUsers(t)
		q := engine.DQuery{
			Atoms: []engine.DAtom{
				{Collection: "users", Terms: []engine.DTerm{engine.DVar("u"), engine.DVar("c")}},
				{Collection: "orders", Terms: []engine.DTerm{engine.DVar("o"), engine.DVar("u")}},
			},
			Out: []string{"o", "c"},
		}
		return s, func(ctx context.Context, extra *engine.Counters) (engine.BatchIterator, error) {
			return s.QueryBatchCounted(ctx, q, extra)
		}
	}},
	{"parstore.SelectBatchCounted/index", func(t *testing.T) (store, openFn) {
		s := parVisits(t)
		return s, func(ctx context.Context, extra *engine.Counters) (engine.BatchIterator, error) {
			return s.SelectBatchCounted(ctx, "buys", []engine.EqFilter{{Col: 1, Val: value.Int(3)}}, nil, extra)
		}
	}},
	{"parstore.SelectBatchCounted/scan", func(t *testing.T) (store, openFn) {
		s := parVisits(t)
		return s, func(ctx context.Context, extra *engine.Counters) (engine.BatchIterator, error) {
			return s.SelectBatchCounted(ctx, "visits", nil, nil, extra)
		}
	}},
	{"parstore.QueryBatchCounted", func(t *testing.T) (store, openFn) {
		s := parVisits(t)
		return s, func(ctx context.Context, extra *engine.Counters) (engine.BatchIterator, error) {
			return s.QueryBatchCounted(ctx, joinUP, extra)
		}
	}},
	{"parstore.Aggregate", func(t *testing.T) (store, openFn) {
		s := parVisits(t)
		return s, func(ctx context.Context, extra *engine.Counters) (engine.BatchIterator, error) {
			return s.Aggregate(ctx, "visits", nil, []int{1}, "count", -1, extra)
		}
	}},
	{"kvstore.GetBatchCounted", func(t *testing.T) (store, openFn) {
		s := kvstore.New("redis")
		must(t, s.CreateCollection("prefs"))
		for i := 0; i < 300; i++ {
			must(t, s.Append("prefs", "u1", value.TupleOf("u1", i)))
		}
		return s, func(ctx context.Context, extra *engine.Counters) (engine.BatchIterator, error) {
			return s.GetBatchCounted(ctx, "prefs", "u1", extra)
		}
	}},
	{"docstore.FindTuplesBatchCounted", func(t *testing.T) (store, openFn) {
		s := docstore.New("mongo")
		must(t, s.CreateCollection("carts"))
		for i := 0; i < 300; i++ {
			must(t, s.Insert("carts", value.DObj("user", "u1", "n", i)))
		}
		return s, func(ctx context.Context, extra *engine.Counters) (engine.BatchIterator, error) {
			return s.FindTuplesBatchCounted(ctx, "carts",
				[]docstore.PathFilter{{Path: "user", Val: value.Str("u1")}}, []string{"n"}, extra)
		}
	}},
	{"textstore.SearchBatchCounted", func(t *testing.T) (store, openFn) {
		s := textstore.New("solr")
		must(t, s.CreateCollection("products", "description"))
		for i := 0; i < 300; i++ {
			must(t, s.Index("products", map[string]value.Value{
				"pid": value.Int(i), "description": value.Str("wireless headphones")}))
		}
		return s, func(ctx context.Context, extra *engine.Counters) (engine.BatchIterator, error) {
			return s.SearchBatchCounted(ctx, "products",
				textstore.Query{Terms: []string{"wireless"}, Project: []string{"pid"}}, extra)
		}
	}},
}

func TestStoreContract(t *testing.T) {
	for _, r := range reads {
		t.Run(r.name, func(t *testing.T) {
			t.Run("entry", func(t *testing.T) { checkEntry(t, r.setup) })
			t.Run("attribution", func(t *testing.T) { checkAttribution(t, r.setup) })
			t.Run("mid-stream fault", func(t *testing.T) { checkMidStreamFault(t, r.setup) })
			t.Run("close", func(t *testing.T) { checkClose(t, r.setup) })
		})
	}
}

// checkEntry pins when request entry looks at the context: only while it
// waits. With no latency and no stall a cancelled context still opens;
// with a latency to wait out it fails at entry, attributed to the store.
func checkEntry(t *testing.T, setup func(*testing.T) (store, openFn)) {
	s, open := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	it, err := open(ctx, nil)
	if err != nil {
		t.Fatalf("zero-latency entry looked at the cancelled context: %v", err)
	}
	it.Close()

	s.SetRequestLatency(50 * time.Microsecond)
	_, err = open(ctx, nil)
	var se *engine.StoreError
	if !errors.As(err, &se) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled entry = %v, want *engine.StoreError wrapping context.Canceled", err)
	}
	if se.Store != s.Name() {
		t.Errorf("error attributed to %q, want %q", se.Store, s.Name())
	}
}

// checkAttribution requires the per-execution cell to receive exactly
// what the call added to the store-global counters.
func checkAttribution(t *testing.T, setup func(*testing.T) (store, openFn)) {
	s, open := setup(t)
	before := s.Counters().Snapshot()
	var cell engine.Counters
	it, err := open(context.Background(), &cell)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := engine.DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("contract reads must return rows")
	}
	delta := s.Counters().Snapshot().Sub(before)
	if got := cell.Snapshot(); got != delta {
		t.Errorf("per-execution cell = %v, store-global delta = %v", got, delta)
	}
	if delta.Requests != 1 {
		t.Errorf("one read counted %d requests", delta.Requests)
	}
}

// checkMidStreamFault requires every read stream to pass through the
// fault wrapper: the break lands in-band after one batch, not at open.
func checkMidStreamFault(t *testing.T, setup func(*testing.T) (store, openFn)) {
	s, open := setup(t)
	s.Fault().Configure(engine.FaultConfig{FailAfterBatches: 1})
	it, err := open(context.Background(), nil)
	if err != nil {
		t.Fatalf("mid-stream fault surfaced at open: %v", err)
	}
	defer it.Close()
	b := value.GetBatch()
	defer value.PutBatch(b)
	firstBatch(t, it, b)
	_, err = it.NextBatch(b)
	var se *engine.StoreError
	if !errors.Is(err, engine.ErrInjected) || !errors.As(err, &se) || se.Store != s.Name() {
		t.Fatalf("second batch err = %v, want injected fault attributed to %q", err, s.Name())
	}
}

// checkClose requires Close to be idempotent and an early Close to strand
// no goroutine (parstore's partition workers must exit).
func checkClose(t *testing.T, setup func(*testing.T) (store, openFn)) {
	_, open := setup(t)
	baseline := runtime.NumGoroutine()
	it, err := open(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := value.GetBatch()
	defer value.PutBatch(b)
	firstBatch(t, it, b)
	it.Close()
	it.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive an early Close (baseline %d)", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func firstBatch(t *testing.T, it engine.BatchIterator, b *value.Batch) {
	t.Helper()
	if n, err := it.NextBatch(b); err != nil || n == 0 {
		t.Fatalf("first batch = %d, %v; want rows", n, err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// create adapts CreateTable's (table, error) result to must.
func create(_ any, err error) error { return err }
