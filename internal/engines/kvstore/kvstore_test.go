package kvstore

import (
	"context"
	"testing"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s := New("kv-test")
	if err := s.CreateCollection("prefs"); err != nil {
		t.Fatal(err)
	}
	return s
}

// get drains one un-attributed GetBatchCounted request.
func get(t *testing.T, s *Store, collection, key string) []value.Tuple {
	t.Helper()
	it, err := s.GetBatchCounted(context.Background(), collection, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := engine.DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestPutGet(t *testing.T) {
	s := newStore(t)
	want := value.TupleOf("u1", "theme", "dark")
	if err := s.Put("prefs", "u1", want); err != nil {
		t.Fatal(err)
	}
	got := get(t, s, "prefs", "u1")
	if len(got) != 1 || !value.Equal(got[0], want) {
		t.Errorf("Get = %v", got)
	}
}

func TestGetMissingKey(t *testing.T) {
	s := newStore(t)
	got := get(t, s, "prefs", "ghost")
	if len(got) != 0 {
		t.Errorf("missing key returned %v", got)
	}
}

func TestAppendSemantics(t *testing.T) {
	s := newStore(t)
	if err := s.Append("prefs", "u1", value.TupleOf("u1", "theme", "dark")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("prefs", "u1", value.TupleOf("u1", "lang", "fr")); err != nil {
		t.Fatal(err)
	}
	got := get(t, s, "prefs", "u1")
	if len(got) != 2 {
		t.Errorf("append kept %d tuples, want 2", len(got))
	}
	// Put replaces.
	if err := s.Put("prefs", "u1", value.TupleOf("u1", "theme", "light")); err != nil {
		t.Fatal(err)
	}
	got = get(t, s, "prefs", "u1")
	if len(got) != 1 {
		t.Errorf("put kept %d tuples, want 1", len(got))
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t)
	if err := s.Put("prefs", "u1", value.TupleOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("prefs", "u1"); err != nil {
		t.Fatal(err)
	}
	got := get(t, s, "prefs", "u1")
	if len(got) != 0 {
		t.Error("delete did not remove key")
	}
	n, err := s.Len("prefs")
	if err != nil || n != 0 {
		t.Errorf("Len = %d, %v", n, err)
	}
}

func TestCollectionErrors(t *testing.T) {
	s := newStore(t)
	if err := s.CreateCollection("prefs"); err == nil {
		t.Error("duplicate collection accepted")
	}
	if err := s.Put("missing", "k", value.TupleOf(1)); err == nil {
		t.Error("put into missing collection accepted")
	}
	if _, err := s.GetBatchCounted(context.Background(), "missing", "k", nil); err == nil {
		t.Error("get from missing collection accepted")
	}
	if err := s.DropCollection("missing"); err == nil {
		t.Error("drop of missing collection accepted")
	}
	if err := s.DropCollection("prefs"); err != nil {
		t.Error(err)
	}
	if got := s.Collections(); len(got) != 0 {
		t.Errorf("collections = %v", got)
	}
}

func TestCountersTrackLookups(t *testing.T) {
	s := newStore(t)
	if err := s.Put("prefs", "u1", value.TupleOf(1)); err != nil {
		t.Fatal(err)
	}
	get(t, s, "prefs", "u1")
	snap := s.Counters().Snapshot()
	if snap.Lookups != 1 || snap.Requests != 1 || snap.Tuples != 1 {
		t.Errorf("counters = %+v", snap)
	}
}

func TestEngineInterface(t *testing.T) {
	s := New("kv")
	var e engine.Engine = s
	if e.Kind() != "keyvalue" {
		t.Error("kind")
	}
	if e.Capabilities().Has(engine.CapScan) {
		t.Error("KV store must not advertise scans")
	}
	if !e.Capabilities().Has(engine.CapKeyLookup) {
		t.Error("KV store must advertise key lookups")
	}
}

func TestRoundTripComplexTuple(t *testing.T) {
	s := newStore(t)
	tup := value.Tuple{value.Str("u1"), value.List{value.TupleOf("sku1", 2), value.TupleOf("sku2", 1)}}
	if err := s.Put("prefs", "u1", tup); err != nil {
		t.Fatal(err)
	}
	got := get(t, s, "prefs", "u1")
	if !value.Equal(got[0], tup) {
		t.Errorf("round trip = %v", got[0])
	}
}

func TestDeleteTuple(t *testing.T) {
	s := newStore(t)
	row1 := value.TupleOf("u1", "theme", "dark")
	row2 := value.TupleOf("u1", "lang", "fr")
	for _, r := range []value.Tuple{row1, row1, row2} {
		if err := s.Append("prefs", "u1", r); err != nil {
			t.Fatal(err)
		}
	}
	n, err := s.DeleteTuple("prefs", "u1", row1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d copies, want 2", n)
	}
	got := get(t, s, "prefs", "u1")
	if len(got) != 1 || got[0].Key() != row2.Key() {
		t.Fatalf("surviving tuples = %v", got)
	}
	// Removing the last tuple drops the key entirely.
	if _, err := s.DeleteTuple("prefs", "u1", row2); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Len("prefs"); n != 0 {
		t.Fatalf("keys after last delete = %d", n)
	}
	// Absent tuple and absent key: zero removals, no error.
	if n, err := s.DeleteTuple("prefs", "nope", row1); err != nil || n != 0 {
		t.Fatalf("absent: n=%d err=%v", n, err)
	}
}

func TestDumpKeyOrderDeterministic(t *testing.T) {
	s := newStore(t)
	for _, k := range []string{"b", "a", "c"} {
		if err := s.Append("prefs", k, value.TupleOf(k, "k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := s.Dump("prefs")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("dump = %v", rows)
	}
	for i, w := range []string{"a", "b", "c"} {
		if !value.Equal(rows[i][0], value.Str(w)) {
			t.Errorf("row %d = %v, want %q", i, rows[i], w)
		}
	}
	// The administrative read is not a request: nothing is counted.
	if snap := s.Counters().Snapshot(); snap != (engine.CounterSnapshot{}) {
		t.Errorf("Dump counted %+v", snap)
	}
}
