package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/pivot"
	"repro/internal/value"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.01, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestSubWindowPercentileRules(t *testing.T) {
	// 40 samples per sub-window support the median (20 beyond) but not
	// p99 (0.4 beyond): the first is a median of per-sub-window medians,
	// the second falls back to the whole window.
	subs := make([][]int64, 5)
	for k := range subs {
		for i := 1; i <= 40; i++ {
			subs[k] = append(subs[k], int64(100*(k+1)+i))
		}
	}
	v, n, rule := subWindowPercentile(subs, 0.5)
	if rule != "median-of-sub-windows" || n != 200 || v != 320 {
		t.Errorf("p50 = %v over %d by %s, want 320 over 200 by median-of-sub-windows", v, n, rule)
	}
	v, _, rule = subWindowPercentile(subs, 0.99)
	if rule != "whole-window" || v != 538 {
		t.Errorf("p99 = %v by %s, want 538 by whole-window", v, rule)
	}
	// One outlying sub-window moves a whole-window mean, not the median of
	// sub-window medians.
	for i := range subs[4] {
		subs[4][i] *= 1000
	}
	if v, _, _ := subWindowPercentile(subs, 0.5); v != 320 {
		t.Errorf("p50 with an outlying sub-window = %v, want 320", v)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4}); q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles(1..4) = %v, %v, want 1.25, 3.75", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1 (5.5 / 5.5)", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a by 10
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Name: "a.inner", Parent: 1, Start: 15, End: 20},
	}
	want := []int64{100 - (50 + 10), 30 - 5, 30, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestChainShares(t *testing.T) {
	spans := []span{
		{Name: "service.request.warm", Parent: -1, Req: 1, Start: 0, End: 100},
		{Name: "decomposed.warm", Parent: -1, Req: 1, Start: 200, End: 290},
		{Name: "lang.parse", Parent: 1, Req: 1, Start: 200, End: 220},
		{Name: "exec.drain", Parent: 1, Req: 1, Start: 220, End: 280},
		{Name: "lang.parse_sql", Parent: -1, Start: 300, End: 400}, // a probe: not on the chain
	}
	got := chainShares(spans, "warm")
	for layer, want := range map[string]float64{"lang": 0.2, "exec": 0.6, "service": 0.2} {
		if math.Abs(got[layer]-want) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", layer, got[layer], want)
		}
	}
}

func TestOracleJoinsAndSetSemantics(t *testing.T) {
	rel := map[string][]value.Tuple{
		"R": {value.TupleOf("a", int64(1)), value.TupleOf("a", int64(2)), value.TupleOf("b", int64(3))},
		"S": {value.TupleOf(int64(1), "x"), value.TupleOf(int64(2), "x"), value.TupleOf(int64(3), "y")},
	}
	o := newOracle(func(p string) []value.Tuple { return rel[p] })
	q := pivot.NewCQ(pivot.NewAtom("Q", pivot.Var("k"), pivot.Var("s")),
		pivot.NewAtom("S", pivot.Var("n"), pivot.Var("s")),
		pivot.NewAtom("R", pivot.Var("k"), pivot.Var("n")))
	if err := o.check(q, []value.Tuple{value.TupleOf("a", "x"), value.TupleOf("b", "y")}); err != nil {
		t.Error(err)
	}
	if err := o.check(q, []value.Tuple{value.TupleOf("a", "x")}); err == nil {
		t.Error("a missing answer was accepted")
	}
	if err := o.check(q, []value.Tuple{value.TupleOf("a", "x"), value.TupleOf("b", "y"), value.TupleOf("b", "x")}); err == nil {
		t.Error("a wrong answer was accepted")
	}
	bound := pivot.NewCQ(pivot.NewAtom("Q", pivot.Var("n")), pivot.NewAtom("R", pivot.CStr("a"), pivot.Var("n")))
	if got := o.eval(bound); len(got) != 2 {
		t.Errorf("R('a', n) has %d answers, want 2", len(got))
	}
}

func TestRenderedSurfacesParseToTheBoundQuery(t *testing.T) {
	d, _, err := setUp(context.Background(), &workloadDef{deploy: deploySocial})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range socialShapes() {
		want := sh.bind("u00007")
		for _, surface := range surfaces {
			text := sh.render(surface, d.schema, "u00007")
			got, err := parseText(surface, text, d.schema)
			if err != nil {
				t.Fatalf("%s %q: %v", surface, text, err)
			}
			if !pivot.Equivalent(got, want) {
				t.Errorf("%s %q parses to %s, want the equivalent of %s", surface, text, got, want)
			}
		}
	}
}

// planFor builds the point_hot plan for a seed on a fresh deployment.
func planFor(t *testing.T, seed int64) (*workloadDef, *plan) {
	t.Helper()
	defs, err := workloads()
	if err != nil {
		t.Fatal(err)
	}
	w := defs[0]
	d, _, err := setUp(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return w, buildPlan(d, w, seed, 2)
}

func TestSameSeedSameOpStream(t *testing.T) {
	_, a := planFor(t, 7)
	_, b := planFor(t, 7)
	_, c := planFor(t, 8)
	if a.hash() != b.hash() {
		t.Error("the same seed generated two different op streams")
	}
	if a.hash() == c.hash() {
		t.Error("two seeds generated the same op stream")
	}
	cold7, err := coldShapeSet(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	again, _ := coldShapeSet(rand.New(rand.NewSource(7)))
	for i := range cold7 {
		if cold7[i].q.String() != again[i].q.String() {
			t.Fatalf("cold shape %d differs between two draws of one seed", i)
		}
	}
}

func TestGeneratorLoopDoesNotAllocate(t *testing.T) {
	_, p := planFor(t, 1)
	r := &reader{stream: p.streams[0], lat: make([]int64, 0, 1<<22), ttfr: make([]int64, 0, 1<<22),
		send: func(context.Context, *query) outcome { return outcome{end: time.Now()} }}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		r.reset()
		r.run(ctx, p.queries, time.Now(), 2*time.Millisecond, subWindows)
	})
	if allocs != 0 {
		t.Errorf("the generator loop allocated %v times per window", allocs)
	}
	if r.attempted == 0 {
		t.Error("the generator loop sent nothing")
	}
}

// TestSmokeAllWorkloads runs every workload end to end with 1 s windows:
// the answers must match the oracle, nothing may fail, and every metric the
// BENCHMARK.json lists must be reported, for exactly the workloads it lists.
// The traced replay is skipped with -short.
func TestSmokeAllWorkloads(t *testing.T) {
	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &contract); err != nil {
		t.Fatal(err)
	}
	defs, err := workloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != len(contract.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(defs), len(contract.Workloads))
	}
	for i, w := range defs {
		if w.name != contract.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json lists %s", i, w.name, contract.Workloads[i].Name)
		}
		w.traceSample = min(w.traceSample, 40)
		res, err := runWorkload(context.Background(), w, runOpts{
			seed: 1, window: time.Second, warmup: 50 * time.Millisecond, setups: 1,
			endToEnd: true, traced: !testing.Short(), outDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", w.name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		if len(res.EndToEnd) != len(contract.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json lists %d", w.name, len(res.EndToEnd), len(contract.EndToEnd))
		}
		for _, c := range contract.EndToEnd {
			if m, ok := res.EndToEnd[c.Name]; !ok || m.Value <= 0 || m.Unit != c.Unit {
				t.Errorf("%s: end-to-end metric %s = %v %s (reported: %v), want a positive number of %s", w.name, c.Name, m.Value, m.Unit, ok, c.Unit)
			}
		}
		if testing.Short() {
			continue
		}
		if len(res.PerLayer) != len(contract.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json lists %d", w.name, len(res.PerLayer), len(contract.PerLayer))
		}
		for _, c := range contract.PerLayer {
			if m, ok := res.PerLayer[c.Name]; !ok || m.Unit != c.Unit {
				t.Errorf("%s: per-layer metric %s reported=%v in %q, want %q", w.name, c.Name, ok, m.Unit, c.Unit)
			}
		}
	}
}
