package engine

import (
	"testing"

	"repro/internal/value"
)

func rowsN(n int) []value.Tuple {
	out := make([]value.Tuple, n)
	for i := range out {
		out[i] = value.TupleOf(i, i%7)
	}
	return out
}

func TestSliceBatchIterator(t *testing.T) {
	rows := rowsN(2*value.BatchCap + 17)
	got, err := DrainBatches(NewSliceBatchIterator(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("drained %d of %d", len(got), len(rows))
	}
	for i := range rows {
		if !value.Equal(got[i], rows[i]) {
			t.Fatalf("row %d = %v", i, got[i])
		}
	}
}

func TestBatchFilter(t *testing.T) {
	rows := []value.Tuple{
		value.TupleOf(1, 1, "a"),
		value.TupleOf(1, 2, "a"),
		value.TupleOf(2, 2, "b"),
		value.TupleOf(3, 3, "a"),
	}
	f := &BatchFilter{
		In:      NewSliceBatchIterator(rows),
		Filters: []EqFilter{{Col: 2, Val: value.Str("a")}},
		EqCols:  [][2]int{{0, 1}},
	}
	got, err := DrainBatches(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("filtered = %v", got)
	}
}

// A low-selectivity filter over many input batches must still respect the
// destination capacity and deliver every passing row exactly once.
func TestBatchFilterSpansInputBatches(t *testing.T) {
	n := 5 * value.BatchCap
	rows := make([]value.Tuple, n)
	for i := range rows {
		rows[i] = value.TupleOf(i, i%2)
	}
	f := &BatchFilter{
		In:      NewSliceBatchIterator(rows),
		Filters: []EqFilter{{Col: 1, Val: value.Int(0)}},
	}
	b := value.GetBatch()
	defer value.PutBatch(b)
	total := 0
	for {
		got, err := f.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if got == 0 {
			break
		}
		if got > b.Cap() {
			t.Fatalf("overfilled batch: %d > %d", got, b.Cap())
		}
		total += got
	}
	f.Close()
	if total != n/2 {
		t.Fatalf("filtered %d of %d", total, n/2)
	}
}

func TestBatchProject(t *testing.T) {
	rows := rowsN(value.BatchCap + 5)
	p := &BatchProject{In: NewSliceBatchIterator(rows), Cols: []int{1, 0, 9}}
	got, err := DrainBatches(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("projected %d of %d", len(got), len(rows))
	}
	for i, r := range got {
		if !value.Equal(r[0], rows[i][1]) || !value.Equal(r[1], rows[i][0]) {
			t.Fatalf("row %d = %v", i, r)
		}
		if _, isNull := r[2].(value.Null); !isNull {
			t.Fatalf("out-of-range column not NULL: %v", r)
		}
	}
}

func TestCountingBatchIteratorTalliesPerBatch(t *testing.T) {
	var store, exec Counters
	it := &CountingBatchIterator{
		In: NewSliceBatchIterator(rowsN(600)),
		T:  NewTally(&store, &exec),
	}
	got, err := DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 600 {
		t.Fatalf("drained %d", len(got))
	}
	if store.Snapshot().Tuples != 600 || exec.Snapshot().Tuples != 600 {
		t.Errorf("tallies = %v / %v", store.Snapshot(), exec.Snapshot())
	}
}

func TestMatchEqCols(t *testing.T) {
	tu := value.TupleOf(1, 1, 2)
	if !MatchEqCols(tu, [][2]int{{0, 1}}) {
		t.Error("equal pair rejected")
	}
	if MatchEqCols(tu, [][2]int{{0, 2}}) {
		t.Error("unequal pair accepted")
	}
	if MatchEqCols(tu, [][2]int{{0, 9}}) {
		t.Error("out-of-range pair accepted")
	}
}
