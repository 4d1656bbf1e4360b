package exec

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engines/engine"
	"repro/internal/value"
)

// --- cancellation cadence -------------------------------------------------

// endlessSource never exhausts; each call hands out `per` rows. It counts
// the batches it delivered so the test can bound how far a cancelled
// execution ran.
type endlessSource struct {
	per       int
	delivered int
	onBatch   func(k int)
}

func (s *endlessSource) NextBatch(dst *value.Batch) (int, error) {
	dst.Reset()
	for i := 0; i < s.per && !dst.Full(); i++ {
		dst.Append(value.TupleOf(i))
	}
	s.delivered++
	if s.onBatch != nil {
		s.onBatch(s.delivered)
	}
	return dst.Len(), nil
}
func (*endlessSource) Close() {}

// A cancelled context must stop a long scan after at most one more batch
// — not at some power-of-two row count, and not never. The 255-row batch
// size is deliberate: the old cadence (len(out)&0xff == 0) never fired on
// non-multiples of 256, so an endless scan ran forever.
func TestRunWithCancellationStopsScanPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := &endlessSource{per: 255}
	src.onBatch = func(k int) {
		if k == 3 {
			cancel()
		}
	}
	node := &Source{
		Name: "endless",
		Out:  Schema{"x"},
		BatchFn: func(*Ctx) (engine.BatchIterator, error) {
			return src, nil
		},
	}
	_, err := RunWith(&Ctx{Context: ctx}, node)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.delivered > 4 {
		t.Errorf("scan ran %d batches past cancellation", src.delivered)
	}
}

func TestRunWithPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opened := false
	node := &Source{
		Name: "never",
		Out:  Schema{"x"},
		BatchFn: func(*Ctx) (engine.BatchIterator, error) {
			opened = true
			return engine.NewSliceBatchIterator(nil), nil
		},
	}
	if _, err := RunWith(&Ctx{Context: ctx}, node); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if opened {
		t.Error("plan opened despite pre-cancelled context")
	}
}

// Cancellation must also interrupt a bind join between dependent fetches.
func TestBindJoinCancellationBetweenFetches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	fetches := 0
	fetch := func(_ *Ctx, bind value.Tuple) (engine.BatchIterator, error) {
		fetches++
		if fetches == 2 {
			cancel()
		}
		return engine.NewSliceBatchIterator([]value.Tuple{value.TupleOf(bind[0], "v")}), nil
	}
	var leftRows []value.Tuple
	for i := 0; i < 4*value.BatchCap; i++ {
		leftRows = append(leftRows, value.TupleOf(i)) // all keys distinct
	}
	left := &Values{Out: Schema{"u"}, Rows: leftRows}
	bj, err := NewBindJoin(left, []string{"u"}, Schema{"u", "v"}, fetch)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunWith(&Ctx{Context: ctx}, bj)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fetches > 3 {
		t.Errorf("bind join issued %d fetches past cancellation", fetches)
	}
}

// --- batch join error propagation ----------------------------------------

type failAfterBatches struct {
	n   int
	err error
}

func (it *failAfterBatches) NextBatch(dst *value.Batch) (int, error) {
	dst.Reset()
	if it.n <= 0 {
		return 0, it.err
	}
	it.n--
	for !dst.Full() {
		dst.Append(value.TupleOf(it.n, dst.Len()))
	}
	return dst.Len(), nil
}
func (*failAfterBatches) Close() {}

// A build side that fails mid-stream (after yielding rows) must surface
// the error through the probe-side NextBatch.
func TestHashJoinBuildSideMidStreamError(t *testing.T) {
	sentinel := errors.New("right store died mid-scan")
	right := &Source{
		Name: "flaky",
		Out:  Schema{"x", "y"},
		BatchFn: func(*Ctx) (engine.BatchIterator, error) {
			return &failAfterBatches{n: 2, err: sentinel}, nil
		},
	}
	left := &Values{Out: Schema{"x"}, Rows: []value.Tuple{value.TupleOf(1)}}
	j, err := NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(j); !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want mid-stream build error", err)
	}
}

// A bind-join fetch whose batch stream fails while draining must surface
// the error (not just a failing Fetch call).
func TestBindJoinFetchStreamError(t *testing.T) {
	sentinel := errors.New("kv stream died")
	fetch := func(*Ctx, value.Tuple) (engine.BatchIterator, error) {
		return &failAfterBatches{n: 1, err: sentinel}, nil
	}
	left := &Values{Out: Schema{"u"}, Rows: []value.Tuple{value.TupleOf("u1")}}
	bj, err := NewBindJoin(left, []string{"u"}, Schema{"v"}, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(bj); !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want fetch stream error", err)
	}
}

// --- batch/tuple equivalence property test --------------------------------

// The property: over randomized plans, the batch pipeline produces exactly
// the row multiset of a naive tuple-at-a-time reference evaluation
// (independent nested-loop semantics implemented below).

type refPlan struct {
	node Node
	rows []value.Tuple // reference result, computed tuple-at-a-time
}

func multiset(rows []value.Tuple) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return keys
}

// randomLeaf picks one marketplace relation as a Values leaf.
func randomLeaf(rng *rand.Rand, m *datagen.Marketplace) refPlan {
	type rel struct {
		schema Schema
		rows   []value.Tuple
	}
	rels := []rel{
		{Schema{"uid", "name", "city"}, m.Users},
		{Schema{"uid", "pkey", "pval"}, m.Prefs},
		{Schema{"pid", "cat", "desc"}, m.Products},
		{Schema{"oid", "uid", "pid", "amount"}, m.Orders},
		{Schema{"uid", "pid", "qty"}, m.Carts},
		{Schema{"uid", "pid", "dur"}, m.Visits},
	}
	r := rels[rng.Intn(len(rels))]
	return refPlan{
		node: &Values{Out: r.schema, Rows: r.rows},
		rows: r.rows,
	}
}

// randomUnary wraps a plan in Select, Project or Distinct
// combinations, keeping the reference rows in lockstep.
func randomUnary(rng *rand.Rand, p refPlan) refPlan {
	schema := p.node.Schema()
	switch rng.Intn(4) {
	case 0: // constant selection on a random column, value drawn from data
		if len(p.rows) == 0 {
			return p
		}
		col := rng.Intn(len(schema))
		val := p.rows[rng.Intn(len(p.rows))][col]
		node := &Select{In: p.node, EqConst: []engine.EqFilter{{Col: col, Val: val}}}
		var out []value.Tuple
		for _, t := range p.rows {
			if value.Equal(t[col], val) {
				out = append(out, t)
			}
		}
		return refPlan{node: node, rows: out}
	case 1: // column-equality selection
		a, b := rng.Intn(len(schema)), rng.Intn(len(schema))
		node := &Select{In: p.node, EqCols: [][2]int{{a, b}}}
		var out []value.Tuple
		for _, t := range p.rows {
			if value.Equal(t[a], t[b]) {
				out = append(out, t)
			}
		}
		return refPlan{node: node, rows: out}
	case 2: // random projection (subset, preserving at least one column)
		n := 1 + rng.Intn(len(schema))
		perm := rng.Perm(len(schema))[:n]
		cols := make([]string, n)
		for i, c := range perm {
			cols[i] = schema[c]
		}
		node, err := NewProject(p.node, cols)
		if err != nil {
			return p
		}
		out := make([]value.Tuple, len(p.rows))
		for i, t := range p.rows {
			row := make(value.Tuple, n)
			for j, c := range perm {
				row[j] = t[c]
			}
			out[i] = row
		}
		return refPlan{node: node, rows: out}
	default: // distinct
		node := &Distinct{In: p.node}
		seen := map[string]bool{}
		var out []value.Tuple
		for _, t := range p.rows {
			k := t.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
		return refPlan{node: node, rows: out}
	}
}

// refNaturalJoin computes the natural join tuple-at-a-time.
func refNaturalJoin(ls, rs Schema, left, right []value.Tuple) []value.Tuple {
	shared := map[string]bool{}
	for _, v := range ls {
		if rs.Pos(v) >= 0 {
			shared[v] = true
		}
	}
	var keep []int
	for i, v := range rs {
		if !shared[v] {
			keep = append(keep, i)
		}
	}
	var out []value.Tuple
	for _, l := range left {
		for _, r := range right {
			ok := true
			for v := range shared {
				if !value.Equal(l[ls.Pos(v)], r[rs.Pos(v)]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			row := append(append(value.Tuple{}, l...), make(value.Tuple, 0, len(keep))...)
			for _, c := range keep {
				row = append(row, r[c])
			}
			out = append(out, row)
		}
	}
	return out
}

func TestBatchTupleEquivalenceProperty(t *testing.T) {
	cfg := datagen.MarketplaceConfig{
		Seed: 7, Users: 60, Products: 25, OrdersPerUser: 3,
		VisitsPerUser: 3, PrefsPerUser: 2, CartItemsPerUser: 2, ZipfS: 1.3,
	}
	m := datagen.NewMarketplace(cfg)
	rng := rand.New(rand.NewSource(20260729))

	for trial := 0; trial < 60; trial++ {
		p := randomLeaf(rng, m)
		for d := rng.Intn(3); d > 0; d-- {
			p = randomUnary(rng, p)
		}
		if rng.Intn(2) == 0 { // join with a second randomized branch
			q := randomLeaf(rng, m)
			for d := rng.Intn(2); d > 0; d-- {
				q = randomUnary(rng, q)
			}
			ls, rs := p.node.Schema(), q.node.Schema()
			join, err := NewHashJoin(p.node, q.node)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			expected := refNaturalJoin(ls, rs, p.rows, q.rows)
			// Guard against pathological cross products.
			if len(expected) > 200000 {
				continue
			}
			p = refPlan{node: join, rows: expected}
			for d := rng.Intn(2); d > 0; d-- {
				p = randomUnary(rng, p)
			}
		}
		got, err := Run(p.node)
		if err != nil {
			t.Fatalf("trial %d: run: %v\n%s", trial, err, Explain(p.node))
		}
		g, w := multiset(got), multiset(p.rows)
		if len(g) != len(w) {
			t.Fatalf("trial %d: batch %d rows, reference %d rows\n%s",
				trial, len(g), len(w), Explain(p.node))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("trial %d: multiset mismatch at %d\n%s", trial, i, Explain(p.node))
			}
		}
	}
}

// A bind join over randomized duplicate-heavy keys must match the naive
// per-left-tuple fetch semantics exactly despite the batch-level dedup.
func TestBindJoinEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		store := map[string][]value.Tuple{}
		nKeys := 1 + rng.Intn(10)
		for k := 0; k < nKeys; k++ {
			key := string(rune('a' + k))
			for j := rng.Intn(4); j > 0; j-- {
				store[key] = append(store[key], value.TupleOf(key, j*10))
			}
		}
		var leftRows []value.Tuple
		for i := 0; i < rng.Intn(600); i++ {
			leftRows = append(leftRows, value.TupleOf(string(rune('a'+rng.Intn(nKeys+2))), i))
		}
		fetch := func(_ *Ctx, bind value.Tuple) (engine.BatchIterator, error) {
			return engine.NewSliceBatchIterator(store[string(bind[0].(value.Str))]), nil
		}
		left := &Values{Out: Schema{"u", "i"}, Rows: leftRows}
		bj, err := NewBindJoin(left, []string{"u"}, Schema{"u", "v"}, fetch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(bj)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: one fetch per left tuple, residual u-equality.
		var want []value.Tuple
		for _, l := range leftRows {
			for _, r := range store[string(l[0].(value.Str))] {
				if value.Equal(r[0], l[0]) {
					want = append(want, append(append(value.Tuple{}, l...), r[1]))
				}
			}
		}
		g, w := multiset(got), multiset(want)
		if len(g) != len(w) {
			t.Fatalf("trial %d: %d rows vs reference %d", trial, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("trial %d: multiset mismatch", trial)
			}
		}
	}
}
