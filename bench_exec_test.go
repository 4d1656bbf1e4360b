// Executor micro-benchmarks: allocation guards for the batch pipeline
// (exec operators exchanging value.Batch slabs) on the executor's hot
// shapes. They support no performance claim — bench/ measures the
// mediator end to end.
//
//	ExecBatchScan     — residual filter + projection over a wide scan
//	ExecBatchHashJoin — natural hash join, build + probe
//	ExecBatchScanJoin — scan + join + distinct, the residual work of a
//	                    non-delegated cross-store join
//	ExecBatchBindJoin — dependent access with duplicate-heavy bind keys
package repro

import (
	"fmt"
	"testing"

	"repro/internal/engines/engine"
	"repro/internal/exec"
	"repro/internal/value"
)

const benchScanRows = 50000

func scanRows() []value.Tuple {
	rows := make([]value.Tuple, benchScanRows)
	for i := range rows {
		rows[i] = value.TupleOf(i, i%97, fmt.Sprintf("city%02d", i%13))
	}
	return rows
}

func BenchmarkExecBatchScan(b *testing.B) {
	rows := scanRows()
	want := benchScanRows / 13
	var plan exec.Node = &exec.Select{
		In:      &exec.Values{Out: exec.Schema{"id", "mod", "city"}, Rows: rows},
		EqConst: []engine.EqFilter{{Col: 2, Val: value.Str("city07")}},
	}
	plan, err := exec.NewProject(plan, []string{"id", "mod"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := exec.Run(plan)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != want {
			b.Fatalf("rows = %d, want %d", len(out), want)
		}
	}
}

const (
	benchJoinLeft  = 20000
	benchJoinRight = 2000
)

func joinInputs() (left, right []value.Tuple) {
	left = make([]value.Tuple, benchJoinLeft)
	for i := range left {
		left[i] = value.TupleOf(fmt.Sprintf("u%04d", i%benchJoinRight), i, i%7)
	}
	right = make([]value.Tuple, benchJoinRight)
	for i := range right {
		right[i] = value.TupleOf(fmt.Sprintf("u%04d", i), fmt.Sprintf("city%02d", i%13))
	}
	return left, right
}

func BenchmarkExecBatchHashJoin(b *testing.B) {
	left, right := joinInputs()
	j, err := exec.NewHashJoin(
		&exec.Values{Out: exec.Schema{"u", "i", "m"}, Rows: left},
		&exec.Values{Out: exec.Schema{"u", "city"}, Rows: right},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := exec.Run(j)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != benchJoinLeft {
			b.Fatalf("rows = %d, want %d", len(out), benchJoinLeft)
		}
	}
}

func BenchmarkExecBatchScanJoin(b *testing.B) {
	left, right := joinInputs()
	var plan exec.Node = &exec.Select{
		In:      &exec.Values{Out: exec.Schema{"u", "i", "m"}, Rows: left},
		EqConst: []engine.EqFilter{{Col: 2, Val: value.Int(3)}},
	}
	plan, err := exec.NewHashJoin(plan, &exec.Values{Out: exec.Schema{"u", "city"}, Rows: right})
	if err != nil {
		b.Fatal(err)
	}
	plan = &exec.Distinct{In: plan}
	want := benchJoinLeft / 7
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := exec.Run(plan)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != want {
			b.Fatalf("rows = %d, want %d", len(out), want)
		}
	}
}

const (
	benchBindLeft = 10000
	benchBindKeys = 500 // duplicate-heavy: each key repeats ~20×
)

func bindInputs() (left []value.Tuple, store map[string][]value.Tuple) {
	left = make([]value.Tuple, benchBindLeft)
	store = make(map[string][]value.Tuple, benchBindKeys)
	for i := range left {
		// Run-length duplicate keys, as a join output ordered by the bind
		// column produces: each key repeats on ~20 consecutive left rows.
		key := fmt.Sprintf("u%03d", (i/20)%benchBindKeys)
		left[i] = value.TupleOf(key, i)
	}
	for k := 0; k < benchBindKeys; k++ {
		key := fmt.Sprintf("u%03d", k)
		store[key] = []value.Tuple{value.TupleOf(key, "dark"), value.TupleOf(key, "fr")}
	}
	return left, store
}

func BenchmarkExecBatchBindJoin(b *testing.B) {
	left, store := bindInputs()
	fetch := func(_ *exec.Ctx, bind value.Tuple) (engine.BatchIterator, error) {
		return engine.NewSliceBatchIterator(store[string(bind[0].(value.Str))]), nil
	}
	bj, err := exec.NewBindJoin(
		&exec.Values{Out: exec.Schema{"u", "i"}, Rows: left},
		[]string{"u"}, exec.Schema{"u", "pref"}, fetch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := exec.Run(bj)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 2*benchBindLeft {
			b.Fatalf("rows = %d, want %d", len(out), 2*benchBindLeft)
		}
	}
}
