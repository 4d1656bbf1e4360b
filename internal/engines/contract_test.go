// Package engines_test holds the store contract: the checks every read of
// every substrate must pass, written once over a table of reads instead of
// once per store, and the checks every fragment container must pass,
// written once over a table of the five layouts.
package engines_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/engines/docstore"
	"repro/internal/engines/engine"
	"repro/internal/engines/kvstore"
	"repro/internal/engines/parstore"
	"repro/internal/engines/relstore"
	"repro/internal/engines/textstore"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/translate"
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
			must(t, s.Insert("products", map[string]value.Value{
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

// layouts lists one fragment layout per kind over the same view
// V(k, a, b). The document layout nests two columns under one object. The
// tables index and partition a column other than the filtered one, so
// their filtered reads are scans.
var layouts = []struct {
	store  string
	layout catalog.Layout
}{
	{"pg", catalog.Layout{Kind: catalog.LayoutRel, Collection: "v", Columns: []string{"k", "a", "b"}, IndexCols: []int{1}}},
	{"spark", catalog.Layout{Kind: catalog.LayoutPar, Collection: "v", Columns: []string{"k", "a", "b"}, PartitionCol: 1, IndexCols: []int{1}}},
	{"redis", catalog.Layout{Kind: catalog.LayoutKV, Collection: "v", KeyCol: 0}},
	{"mongo", catalog.Layout{Kind: catalog.LayoutDoc, Collection: "v", DocPaths: []string{"k", "x.a", "x.b"}, IndexCols: []int{0}}},
	{"solr", catalog.Layout{Kind: catalog.LayoutText, Collection: "v", Columns: []string{"k", "a", "b"}, TextField: "b"}},
}

// newContainer binds a fresh V fragment with the given layout, on a
// store of its own.
func newContainer(t *testing.T, store string, l catalog.Layout) *translate.Container {
	t.Helper()
	st := translate.NewStores()
	st.AddRel(relstore.New("pg"))
	st.AddPar(parstore.New("spark", 4))
	st.AddKV(kvstore.New("redis"))
	st.AddDoc(docstore.New("mongo"))
	st.AddText(textstore.New("solr"))
	args := []pivot.Term{pivot.Var("k"), pivot.Var("a"), pivot.Var("b")}
	f := &catalog.Fragment{
		Name: "V", Dataset: "d", Store: store, Layout: l,
		View: rewrite.NewView("V", pivot.NewCQ(pivot.NewAtom("V", args...), pivot.NewAtom("R", args...))),
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := st.Container(f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// vRows returns n distinct V tuples over five keys.
func vRows(from, n int) []value.Tuple {
	rows := make([]value.Tuple, n)
	for i := range rows {
		j := from + i
		rows[i] = value.TupleOf(fmt.Sprintf("u%d", j%5), j, fmt.Sprintf("note %d", j))
	}
	return rows
}

func TestContainerContract(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.layout.Kind.String(), func(t *testing.T) {
			t.Run("ensure", func(t *testing.T) { checkEnsure(t, newContainer(t, l.store, l.layout)) })
			t.Run("round trip", func(t *testing.T) { checkRoundTrip(t, newContainer(t, l.store, l.layout)) })
			t.Run("drift", func(t *testing.T) { checkDrift(t, newContainer(t, l.store, l.layout)) })
			t.Run("snapshot", func(t *testing.T) { checkSnapshot(t, newContainer(t, l.store, l.layout)) })
			t.Run("drop", func(t *testing.T) { checkDrop(t, newContainer(t, l.store, l.layout)) })
		})
	}
}

// checkEnsure: a container is missing until Ensure, and Ensure neither
// fails nor empties an existing container.
func checkEnsure(t *testing.T, c *translate.Container) {
	if _, err := c.Extent(); err == nil {
		t.Fatal("extent of a container never ensured read no error")
	}
	must(t, c.Ensure())
	must(t, c.Ensure())
	rows := vRows(0, 12)
	must(t, c.Apply(rows, nil))
	must(t, c.Ensure())
	sameMultiset(t, "extent after a repeated Ensure", extent(t, c), rows)
}

// checkRoundTrip: what Apply writes, Extent reads back, as a multiset.
func checkRoundTrip(t *testing.T, c *translate.Container) {
	must(t, c.Ensure())
	rows := vRows(0, 20)
	must(t, c.Apply(rows, nil))
	sameMultiset(t, "extent after load", extent(t, c), rows)
	adds, dels := vRows(20, 6), []value.Tuple{rows[0], rows[7], rows[19]}
	must(t, c.Apply(adds, dels))
	want := append(slices.Clone(rows[1:7]), rows[8:19]...)
	sameMultiset(t, "extent after delta", extent(t, c), append(want, adds...))
}

// checkDrift: deleting a tuple that is not stored is drift, typed.
func checkDrift(t *testing.T, c *translate.Container) {
	must(t, c.Ensure())
	must(t, c.Apply(vRows(0, 5), nil))
	err := c.Apply(nil, vRows(100, 1))
	if !errors.Is(err, translate.ErrDrift) {
		t.Fatalf("delete of an absent tuple: err = %v, want translate.ErrDrift", err)
	}
}

// checkSnapshot: a cursor opened before an Apply reads the rows stored at
// open, while the Apply runs beside it.
func checkSnapshot(t *testing.T, c *translate.Container) {
	must(t, c.Ensure())
	rows := vRows(0, 40)
	must(t, c.Apply(rows, nil))
	var before []value.Tuple
	for _, r := range rows {
		if value.Equal(r[0], value.Str("u1")) {
			before = append(before, r)
		}
	}
	if len(before) == 0 {
		t.Fatal("no stored row has key u1")
	}
	it, err := c.Open(context.Background(), []engine.EqFilter{{Col: 0, Val: value.Str("u1")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c.Apply(vRows(40, 10), before); err != nil {
			t.Error(err)
		}
	}()
	got, err := engine.DrainBatches(it)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, "cursor opened before Apply", got, before)
}

// checkDrop: after Drop, reads fail instead of returning rows.
func checkDrop(t *testing.T, c *translate.Container) {
	must(t, c.Ensure())
	must(t, c.Apply(vRows(0, 5), nil))
	must(t, c.Drop())
	if rows, err := c.Extent(); err == nil {
		t.Errorf("extent after Drop = %d rows, no error", len(rows))
	}
	if _, err := c.Open(context.Background(), []engine.EqFilter{{Col: 0, Val: value.Str("u1")}}, nil); err == nil {
		t.Error("open after Drop read no error")
	}
}

func extent(t *testing.T, c *translate.Container) []value.Tuple {
	t.Helper()
	rows, err := c.Extent()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func sameMultiset(t *testing.T, what string, got, want []value.Tuple) {
	t.Helper()
	keys := func(rows []value.Tuple) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.Key()
		}
		slices.Sort(out)
		return out
	}
	if g, w := keys(got), keys(want); !slices.Equal(g, w) {
		t.Errorf("%s: %d rows %v, want %d rows %v", what, len(got), got, len(want), want)
	}
}
