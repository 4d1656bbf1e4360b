package parstore

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

func newVisits(t *testing.T, partitions int) *Store {
	t.Helper()
	s := New("spark-test", partitions)
	if _, err := s.CreateTable("visits", "uid", "uid", "url", "pid", "dur"); err != nil {
		t.Fatal(err)
	}
	rows := []value.Tuple{
		value.TupleOf("u1", "/home", "p1", 12),
		value.TupleOf("u1", "/p/p2", "p2", 30),
		value.TupleOf("u2", "/home", "p1", 5),
		value.TupleOf("u3", "/p/p3", "p3", 60),
		value.TupleOf("u1", "/p/p1", "p1", 8),
	}
	if err := s.InsertMany("visits", rows); err != nil {
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

func TestPartitioning(t *testing.T) {
	s := newVisits(t, 4)
	tb, err := s.Table("visits")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 5 {
		t.Errorf("total rows = %d", tb.Len())
	}
	// Same key always lands in the same partition.
	var u1parts []int
	for p, part := range tb.parts {
		for _, row := range part {
			if value.Equal(row[0], value.Str("u1")) {
				u1parts = append(u1parts, p)
			}
		}
	}
	if len(u1parts) != 3 {
		t.Fatalf("u1 rows = %d", len(u1parts))
	}
	for _, p := range u1parts[1:] {
		if p != u1parts[0] {
			t.Error("same key split across partitions")
		}
	}
}

func TestParallelScanSelect(t *testing.T) {
	s := newVisits(t, 4)
	rows := selectRows(t, s, "visits", []engine.EqFilter{{Col: 2, Val: value.Str("p1")}}, []int{0, 3})
	if len(rows) != 3 {
		t.Fatalf("p1 visits = %v", rows)
	}
	for _, r := range rows {
		if len(r) != 2 {
			t.Errorf("projection width = %d", len(r))
		}
	}
}

func TestSelectViaIndex(t *testing.T) {
	s := newVisits(t, 4)
	if err := s.CreateIndex("visits", "uid"); err != nil {
		t.Fatal(err)
	}
	if !s.HasIndex("visits", "uid") {
		t.Error("HasIndex false")
	}
	before := s.Counters().Snapshot()
	rows := selectRows(t, s, "visits", []engine.EqFilter{{Col: 0, Val: value.Str("u1")}}, nil)
	if len(rows) != 3 {
		t.Errorf("u1 rows = %v", rows)
	}
	d := s.Counters().Snapshot().Sub(before)
	if d.Scans != 0 || d.Lookups != 1 {
		t.Errorf("counters = %+v", d)
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	s := newVisits(t, 2)
	if err := s.CreateIndex("visits", "pid"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("visits", value.TupleOf("u9", "/x", "p9", 1)); err != nil {
		t.Fatal(err)
	}
	rows := selectRows(t, s, "visits", []engine.EqFilter{{Col: 2, Val: value.Str("p9")}}, nil)
	if len(rows) != 1 {
		t.Errorf("index missed insert: %v", rows)
	}
}

func TestDelegatedJoin(t *testing.T) {
	s := newVisits(t, 3)
	if _, err := s.CreateTable("purchases", "uid", "uid", "pid"); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertMany("purchases", []value.Tuple{
		value.TupleOf("u1", "p1"),
		value.TupleOf("u2", "p9"),
	}); err != nil {
		t.Fatal(err)
	}
	q := engine.DQuery{
		Atoms: []engine.DAtom{
			{Collection: "purchases", Terms: []engine.DTerm{engine.DVar("u"), engine.DVar("p")}},
			{Collection: "visits", Terms: []engine.DTerm{
				engine.DVar("u"), engine.DVar("url"), engine.DVar("p"), engine.DVar("d")}},
		},
		Out: []string{"u", "p", "d"},
	}
	it, err := s.QueryBatchCounted(context.Background(), q, nil)
	rows := drain(t, it, err)
	// u1 bought p1 and visited p1 twice (dur 12 and 8).
	if len(rows) != 2 {
		t.Fatalf("join rows = %v", rows)
	}
	durs := []int{int(rows[0][2].(value.Int)), int(rows[1][2].(value.Int))}
	sort.Ints(durs)
	if durs[0] != 8 || durs[1] != 12 {
		t.Errorf("durations = %v", durs)
	}
}

func TestAggregateCountAndSum(t *testing.T) {
	s := newVisits(t, 4)
	ctx := context.Background()
	it, err := s.Aggregate(ctx, "visits", nil, []int{0}, "count", -1, nil)
	rows := drain(t, it, err)
	counts := map[string]int64{}
	for _, r := range rows {
		counts[string(r[0].(value.Str))] = int64(r[1].(value.Int))
	}
	if counts["u1"] != 3 || counts["u2"] != 1 || counts["u3"] != 1 {
		t.Errorf("counts = %v", counts)
	}

	it, err = s.Aggregate(ctx, "visits", nil, []int{0}, "sum", 3, nil)
	rows = drain(t, it, err)
	sums := map[string]float64{}
	for _, r := range rows {
		sums[string(r[0].(value.Str))] = float64(r[1].(value.Float))
	}
	if sums["u1"] != 50 {
		t.Errorf("sum(u1) = %v", sums["u1"])
	}
}

func TestAggregateMinMaxAndFilters(t *testing.T) {
	s := newVisits(t, 2)
	ctx := context.Background()
	it, err := s.Aggregate(ctx, "visits",
		[]engine.EqFilter{{Col: 0, Val: value.Str("u1")}}, []int{0}, "max", 3, nil)
	rows := drain(t, it, err)
	if len(rows) != 1 || !value.Equal(rows[0][1], value.Int(30)) {
		t.Errorf("max = %v", rows)
	}
	it, err = s.Aggregate(ctx, "visits",
		[]engine.EqFilter{{Col: 0, Val: value.Str("u1")}}, []int{0}, "min", 3, nil)
	rows = drain(t, it, err)
	if len(rows) != 1 || !value.Equal(rows[0][1], value.Int(8)) {
		t.Errorf("min = %v", rows)
	}
	if _, err := s.Aggregate(ctx, "visits", nil, nil, "median", 3, nil); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestNestedColumnRoundTrip(t *testing.T) {
	// The scenario's materialized purchase-history fragment: nested list of
	// (pid, score) pairs per (uid, category).
	s := New("spark", 2)
	if _, err := s.CreateTable("ph", "uid", "uid", "category", "products"); err != nil {
		t.Fatal(err)
	}
	nested := value.List{value.TupleOf("p1", 0.9), value.TupleOf("p2", 0.4)}
	if err := s.Insert("ph", value.Tuple{value.Str("u1"), value.Str("audio"), nested}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("ph", "uid"); err != nil {
		t.Fatal(err)
	}
	rows := selectRows(t, s, "ph", []engine.EqFilter{{Col: 0, Val: value.Str("u1")}}, nil)
	if len(rows) != 1 || !value.Equal(rows[0][2], nested) {
		t.Errorf("nested column = %v", rows)
	}
}

func TestTableErrors(t *testing.T) {
	s := New("spark", 2)
	if _, err := s.CreateTable("t", "nope", "a"); err == nil {
		t.Error("bad partition column accepted")
	}
	if _, err := s.CreateTable("t", "a", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", "a", "a"); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := s.Insert("t", value.TupleOf(1, 2)); err == nil {
		t.Error("width mismatch accepted")
	}
	if err := s.DropTable("t"); err != nil {
		t.Error(err)
	}
	if err := s.DropTable("t"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestMinPartitionsClamped(t *testing.T) {
	s := New("spark", 0)
	if s.Partitions() != 1 {
		t.Errorf("partitions = %d, want clamp to 1", s.Partitions())
	}
}

func TestEngineInterface(t *testing.T) {
	s := New("spark", 2)
	var e engine.Engine = s
	if e.Kind() != "parallel" {
		t.Error("kind")
	}
	if !e.Capabilities().Has(engine.CapParallel | engine.CapJoin | engine.CapNested) {
		t.Error("capabilities")
	}
}

func TestDeleteTupleLevel(t *testing.T) {
	s := newVisits(t, 4)
	if err := s.CreateIndex("visits", "pid"); err != nil {
		t.Fatal(err)
	}
	n, err := s.Delete("visits", value.TupleOf("u1", "/home", "p1", 12))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	if n, err = s.Delete("visits", value.TupleOf("ghost", "/x", "p9", 0)); err != nil || n != 0 {
		t.Fatalf("absent delete: n=%d err=%v", n, err)
	}
	// Index lookups and scans agree on the surviving rows.
	byIdx := selectRows(t, s, "visits", []engine.EqFilter{{Col: 2, Val: value.Str("p1")}}, nil)
	if len(byIdx) != 2 {
		t.Fatalf("post-delete index lookup = %v", byIdx)
	}
	tab, _ := s.Table("visits")
	if tab.Len() != 4 {
		t.Fatalf("post-delete Len = %d, want 4", tab.Len())
	}
}

// TestMutationConcurrentWithParallelScan interleaves inserts/deletes with
// an open parallel batch scan; under -race this proves the per-partition
// copy-on-write discipline against the worker goroutines.
func TestMutationConcurrentWithParallelScan(t *testing.T) {
	s := New("spark-race", 4)
	if _, err := s.CreateTable("visits", "uid", "uid", "url", "pid", "dur"); err != nil {
		t.Fatal(err)
	}
	const n = 4000
	for i := 0; i < n; i++ {
		if err := s.Insert("visits", value.TupleOf(fmt.Sprintf("u%04d", i), "/x", "p1", i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.SelectBatchCounted(context.Background(), "visits", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 800; i++ {
			_ = s.Insert("visits", value.TupleOf(fmt.Sprintf("w%04d", i), "/y", "p2", i))
			if i%2 == 0 {
				_, _ = s.Delete("visits", value.TupleOf(fmt.Sprintf("u%04d", i), "/x", "p1", i))
			}
		}
	}()
	rows, err := engine.DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r) != 4 {
			t.Fatalf("torn row %v", r)
		}
	}
	<-done
	// InsertMany interleaved with a second scan (the audit case): every
	// batch the cursor yields is a consistent snapshot slice.
	it2, err := s.SelectBatchCounted(context.Background(), "visits", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		var batch []value.Tuple
		for i := 0; i < 500; i++ {
			batch = append(batch, value.TupleOf(fmt.Sprintf("m%04d", i), "/z", "p3", i))
		}
		_ = s.InsertMany("visits", batch)
	}()
	if _, err := engine.DrainBatches(it2); err != nil {
		t.Fatal(err)
	}
}
