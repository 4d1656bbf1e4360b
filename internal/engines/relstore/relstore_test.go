package relstore

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

func newUsers(t *testing.T) *Store {
	t.Helper()
	s := New("pg-test")
	if _, err := s.CreateTable("users", "uid", "name", "city"); err != nil {
		t.Fatal(err)
	}
	rows := []value.Tuple{
		value.TupleOf("u1", "ada", "paris"),
		value.TupleOf("u2", "bob", "lyon"),
		value.TupleOf("u3", "cem", "paris"),
	}
	if err := s.InsertMany("users", rows); err != nil {
		t.Fatal(err)
	}
	return s
}

// drain exhausts a read's stream, failing the test on either error.
func drain(t *testing.T, it engine.BatchIterator, err error) []value.Tuple {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := engine.DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// selectRows drains one un-attributed SelectBatchCounted request.
func selectRows(t *testing.T, s *Store, table string, filters []engine.EqFilter, project []int) []value.Tuple {
	t.Helper()
	it, err := s.SelectBatchCounted(context.Background(), table, filters, project, nil)
	return drain(t, it, err)
}

// queryRows drains one un-attributed delegated QueryBatchCounted request.
func queryRows(t *testing.T, s *Store, q engine.DQuery) []value.Tuple {
	t.Helper()
	it, err := s.QueryBatchCounted(context.Background(), q, nil)
	return drain(t, it, err)
}

func TestCreateTableErrors(t *testing.T) {
	s := New("pg")
	if _, err := s.CreateTable("t", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", "a"); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := s.CreateTable("u"); err == nil {
		t.Error("zero-column table accepted")
	}
	if _, err := s.CreateTable("v", "a", "a"); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := s.Table("missing"); err == nil {
		t.Error("missing table lookup succeeded")
	}
}

func TestInsertSchemaCheck(t *testing.T) {
	s := newUsers(t)
	if err := s.Insert("users", value.TupleOf("u4")); err == nil {
		t.Error("width mismatch accepted")
	}
	if err := s.Insert("missing", value.TupleOf(1)); err == nil {
		t.Error("insert into missing table accepted")
	}
}

func TestScan(t *testing.T) {
	s := newUsers(t)
	rows := selectRows(t, s, "users", nil, nil)
	if len(rows) != 3 {
		t.Errorf("scan = %d rows", len(rows))
	}
	snap := s.Counters().Snapshot()
	if snap.Scans != 1 || snap.Requests != 1 {
		t.Errorf("counters = %+v", snap)
	}
}

func TestSelectWithAndWithoutIndex(t *testing.T) {
	s := newUsers(t)
	filter := []engine.EqFilter{{Col: 2, Val: value.Str("paris")}}

	noIdx := selectRows(t, s, "users", filter, nil)
	if len(noIdx) != 2 {
		t.Fatalf("unindexed select = %v", noIdx)
	}
	preScans := s.Counters().Snapshot().Scans

	if err := s.CreateIndex("users", "city"); err != nil {
		t.Fatal(err)
	}
	if !s.HasIndex("users", "city") {
		t.Error("HasIndex = false after CreateIndex")
	}
	withIdx := selectRows(t, s, "users", filter, nil)
	if len(withIdx) != 2 {
		t.Fatalf("indexed select = %v", withIdx)
	}
	snap := s.Counters().Snapshot()
	if snap.Scans != preScans {
		t.Error("indexed select still scanned")
	}
	if snap.Lookups == 0 {
		t.Error("indexed select did not count a lookup")
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	s := newUsers(t)
	if err := s.CreateIndex("users", "uid"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("users", value.TupleOf("u9", "zoe", "nice")); err != nil {
		t.Fatal(err)
	}
	rows := selectRows(t, s, "users", []engine.EqFilter{{Col: 0, Val: value.Str("u9")}}, nil)
	if len(rows) != 1 || !value.Equal(rows[0][1], value.Str("zoe")) {
		t.Errorf("index missed inserted row: %v", rows)
	}
}

func TestSelectProjection(t *testing.T) {
	s := newUsers(t)
	rows := selectRows(t, s, "users", nil, []int{1})
	if len(rows) != 3 || len(rows[0]) != 1 {
		t.Errorf("projected = %v", rows)
	}
}

func TestSelectMultiFilter(t *testing.T) {
	s := newUsers(t)
	if err := s.CreateIndex("users", "city"); err != nil {
		t.Fatal(err)
	}
	rows := selectRows(t, s, "users", []engine.EqFilter{
		{Col: 2, Val: value.Str("paris")},
		{Col: 1, Val: value.Str("ada")},
	}, nil)
	if len(rows) != 1 || !value.Equal(rows[0][0], value.Str("u1")) {
		t.Errorf("residual filter broken: %v", rows)
	}
}

// Two filters on one column: an index on that column serves one of them,
// and the other must still be applied as a residual. Contradictory
// constants select nothing, with or without the index.
func TestSelectTwoFiltersOnIndexedColumn(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		s := newUsers(t)
		if indexed {
			if err := s.CreateIndex("users", "uid"); err != nil {
				t.Fatal(err)
			}
		}
		contradictory := []engine.EqFilter{
			{Col: 0, Val: value.Str("u1")},
			{Col: 0, Val: value.Str("u2")},
		}
		if rows := selectRows(t, s, "users", contradictory, nil); len(rows) != 0 {
			t.Errorf("indexed=%v: uid='u1' AND uid='u2' returned %v", indexed, rows)
		}
		redundant := []engine.EqFilter{
			{Col: 0, Val: value.Str("u1")},
			{Col: 0, Val: value.Str("u1")},
		}
		if rows := selectRows(t, s, "users", redundant, nil); len(rows) != 1 {
			t.Errorf("indexed=%v: uid='u1' AND uid='u1' returned %v", indexed, rows)
		}
		// A delegated query pushes one filter per atom position, so the
		// nearest it gets is two atoms pinning the column to different
		// constants; both accesses go through the same index-or-scan
		// helper as Select and must agree with the unindexed answer.
		q := engine.DQuery{
			Atoms: []engine.DAtom{
				{Collection: "users", Terms: []engine.DTerm{
					engine.DConst(value.Str("u1")), engine.DVar("n"), engine.DVar("c")}},
				{Collection: "users", Terms: []engine.DTerm{
					engine.DConst(value.Str("u3")), engine.DVar("m"), engine.DVar("c")}},
			},
			Out: []string{"n", "m", "c"},
		}
		rows := queryRows(t, s, q)
		if len(rows) != 1 || !value.Equal(rows[0], value.TupleOf("ada", "cem", "paris")) {
			t.Errorf("indexed=%v: delegated self-join = %v", indexed, rows)
		}
		q.Atoms[1].Terms[0] = engine.DConst(value.Str("u2"))
		if rows := queryRows(t, s, q); len(rows) != 0 {
			t.Errorf("indexed=%v: delegated self-join across cities = %v", indexed, rows)
		}
	}
}

func TestDelegatedJoinQuery(t *testing.T) {
	s := newUsers(t)
	if _, err := s.CreateTable("orders", "oid", "uid", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertMany("orders", []value.Tuple{
		value.TupleOf("o1", "u1", 10),
		value.TupleOf("o2", "u1", 20),
		value.TupleOf("o3", "u2", 30),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("orders", "uid"); err != nil {
		t.Fatal(err)
	}
	q := engine.DQuery{
		Atoms: []engine.DAtom{
			{Collection: "users", Terms: []engine.DTerm{
				engine.DVar("u"), engine.DVar("n"), engine.DConst(value.Str("paris"))}},
			{Collection: "orders", Terms: []engine.DTerm{
				engine.DVar("o"), engine.DVar("u"), engine.DVar("amt")}},
		},
		Out: []string{"n", "amt"},
	}
	before := s.Counters().Snapshot()
	rows := queryRows(t, s, q)
	if len(rows) != 2 {
		t.Fatalf("join rows = %v", rows)
	}
	for _, r := range rows {
		if !value.Equal(r[0], value.Str("ada")) {
			t.Errorf("unexpected join row %v", r)
		}
	}
	if s.Counters().Snapshot().Requests-before.Requests != 1 {
		t.Error("delegated join must count exactly one request")
	}
}

func TestDropTable(t *testing.T) {
	s := newUsers(t)
	if err := s.DropTable("users"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("users"); err == nil {
		t.Error("double drop accepted")
	}
	if len(s.Tables()) != 0 {
		t.Errorf("tables = %v", s.Tables())
	}
}

func TestEngineInterface(t *testing.T) {
	s := New("pg")
	var e engine.Engine = s
	if e.Kind() != "relational" || e.Name() != "pg" {
		t.Error("identity broken")
	}
	if !e.Capabilities().Has(engine.CapJoin | engine.CapScan) {
		t.Error("relational store must support joins and scans")
	}
}

func TestInsertIsolation(t *testing.T) {
	// Inserted tuples must be copied: later caller mutation must not leak.
	s := New("pg")
	if _, err := s.CreateTable("t", "a"); err != nil {
		t.Fatal(err)
	}
	row := value.TupleOf(1)
	if err := s.Insert("t", row); err != nil {
		t.Fatal(err)
	}
	row[0] = value.Int(99)
	rows := selectRows(t, s, "t", nil, nil)
	if !value.Equal(rows[0][0], value.Int(1)) {
		t.Error("store aliases caller tuple")
	}
}

func TestDeleteTupleLevel(t *testing.T) {
	s := New("pg-del")
	if _, err := s.CreateTable("users", "uid", "name", "city"); err != nil {
		t.Fatal(err)
	}
	rows := []value.Tuple{
		value.TupleOf("u1", "ada", "paris"),
		value.TupleOf("u2", "bob", "lyon"),
		value.TupleOf("u1", "ada", "paris"), // duplicate copy
	}
	if err := s.InsertMany("users", rows); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("users", "uid"); err != nil {
		t.Fatal(err)
	}
	n, err := s.Delete("users", value.TupleOf("u1", "ada", "paris"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d copies, want 2", n)
	}
	// Absent tuple: zero removals, no error.
	if n, err = s.Delete("users", value.TupleOf("ghost", "x", "y")); err != nil || n != 0 {
		t.Fatalf("absent delete: n=%d err=%v", n, err)
	}
	// The index must have been rebuilt against the surviving rows.
	got := selectRows(t, s, "users", []engine.EqFilter{{Col: 0, Val: value.Str("u2")}}, nil)
	if len(got) != 1 || got[0][1].(value.Str) != "bob" {
		t.Fatalf("post-delete index lookup = %v", got)
	}
	if all := selectRows(t, s, "users", nil, nil); len(all) != 1 {
		t.Fatalf("post-delete scan = %v", all)
	}
	// Wrong arity is rejected.
	if _, err := s.Delete("users", value.TupleOf("u2")); err == nil {
		t.Error("arity-mismatched delete succeeded")
	}
}

// TestMutationConcurrentWithOpenCursor drives inserts and deletes while a
// previously opened batch cursor drains — run under -race this proves the
// copy-on-write discipline: an open cursor keeps its snapshot and never
// observes in-place mutation.
func TestMutationConcurrentWithOpenCursor(t *testing.T) {
	s := newUsers(t)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Insert("users", value.TupleOf(fmt.Sprintf("u%04d", i), "name", "city")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateIndex("users", "uid"); err != nil {
		t.Fatal(err)
	}
	it, err := s.SelectBatchCounted(context.Background(), "users", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			_ = s.Insert("users", value.TupleOf(fmt.Sprintf("w%04d", i), "w", "w"))
			if i%3 == 0 {
				_, _ = s.Delete("users", value.TupleOf(fmt.Sprintf("u%04d", i), "name", "city"))
			}
			if i%7 == 0 {
				it2, err := s.SelectBatchCounted(context.Background(), "users", nil, nil, nil)
				if err == nil {
					_, _ = engine.DrainBatches(it2)
				}
			}
		}
	}()
	rows, err := engine.DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	// The cursor sees at least its open-time snapshot (concurrent inserts
	// may or may not be visible; deletes never corrupt the stream).
	if len(rows) < 1 {
		t.Fatalf("cursor drained %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r) != 3 {
			t.Fatalf("torn row %v", r)
		}
	}
	<-done
}
