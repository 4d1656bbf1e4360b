package exec

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

func vals(schema Schema, rows ...value.Tuple) *Values {
	return &Values{Out: schema, Rows: rows}
}

func TestSchemaPos(t *testing.T) {
	s := Schema{"a", "b"}
	if s.Pos("a") != 0 || s.Pos("b") != 1 || s.Pos("z") != -1 {
		t.Error("Pos broken")
	}
	if s.String() != "(a, b)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSelectConstAndColEq(t *testing.T) {
	in := vals(Schema{"x", "y", "z"},
		value.TupleOf(1, 1, "a"),
		value.TupleOf(1, 2, "a"),
		value.TupleOf(2, 2, "b"),
	)
	sel := &Select{
		In:      in,
		EqConst: []engine.EqFilter{{Col: 2, Val: value.Str("a")}},
		EqCols:  [][2]int{{0, 1}},
	}
	rows, err := Run(sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !value.Equal(rows[0][0], value.Int(1)) {
		t.Errorf("rows = %v", rows)
	}
}

func TestProject(t *testing.T) {
	in := vals(Schema{"x", "y"}, value.TupleOf(1, "a"))
	p, err := NewProject(in, []string{"y", "x"})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !value.Equal(rows[0][0], value.Str("a")) || !value.Equal(rows[0][1], value.Int(1)) {
		t.Errorf("rows = %v", rows)
	}
	if _, err := NewProject(in, []string{"nope"}); err == nil {
		t.Error("unknown projection column accepted")
	}
}

func TestHashJoinNatural(t *testing.T) {
	left := vals(Schema{"u", "n"},
		value.TupleOf("u1", "ada"),
		value.TupleOf("u2", "bob"),
	)
	right := vals(Schema{"u", "city"},
		value.TupleOf("u1", "paris"),
		value.TupleOf("u3", "lyon"),
	)
	j, err := NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	if j.Schema().String() != "(u, n, city)" {
		t.Errorf("schema = %v", j.Schema())
	}
	rows, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !value.Equal(rows[0][2], value.Str("paris")) {
		t.Errorf("join = %v", rows)
	}
}

func TestHashJoinMultiKey(t *testing.T) {
	left := vals(Schema{"a", "b", "l"},
		value.TupleOf(1, 1, "x"),
		value.TupleOf(1, 2, "y"),
	)
	right := vals(Schema{"a", "b", "r"},
		value.TupleOf(1, 2, "z"),
	)
	j, err := NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !value.Equal(rows[0][2], value.Str("y")) || !value.Equal(rows[0][3], value.Str("z")) {
		t.Errorf("rows = %v", rows)
	}
}

func TestHashJoinCrossProduct(t *testing.T) {
	left := vals(Schema{"a"}, value.TupleOf(1), value.TupleOf(2))
	right := vals(Schema{"b"}, value.TupleOf("x"))
	j, err := NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	if j.Label() != "BatchCrossProduct" {
		t.Errorf("label = %q", j.Label())
	}
	rows, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("cross = %v", rows)
	}
}

func TestBindJoin(t *testing.T) {
	// Right side simulates a KV store: fetch(key) returns key-tagged rows.
	store := map[string][]value.Tuple{
		"u1": {value.TupleOf("u1", "theme", "dark")},
		"u2": {value.TupleOf("u2", "theme", "light"), value.TupleOf("u2", "lang", "fr")},
	}
	fetchCount := 0
	fetch := func(_ *Ctx, bind value.Tuple) (engine.BatchIterator, error) {
		fetchCount++
		key := string(bind[0].(value.Str))
		return engine.NewSliceBatchIterator(store[key]), nil
	}
	left := vals(Schema{"u", "city"},
		value.TupleOf("u1", "paris"),
		value.TupleOf("u2", "lyon"),
		value.TupleOf("u9", "nice"),
	)
	bj, err := NewBindJoin(left, []string{"u"}, Schema{"u", "k", "v"}, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if bj.Schema().String() != "(u, city, k, v)" {
		t.Errorf("schema = %v", bj.Schema())
	}
	rows, err := Run(bj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("rows = %v", rows)
	}
	if fetchCount != 3 {
		t.Errorf("fetches = %d, want one per distinct bind key", fetchCount)
	}
}

// Duplicate bind keys within one left batch must share a single store
// access (batch-level bind-key deduplication).
func TestBindJoinDedupesBindKeys(t *testing.T) {
	fetchCount := 0
	fetch := func(_ *Ctx, bind value.Tuple) (engine.BatchIterator, error) {
		fetchCount++
		return engine.NewSliceBatchIterator([]value.Tuple{
			value.TupleOf(bind[0], "hit"),
		}), nil
	}
	var leftRows []value.Tuple
	for i := 0; i < 100; i++ {
		leftRows = append(leftRows, value.TupleOf(fmt.Sprintf("u%d", i%5)))
	}
	left := &Values{Out: Schema{"u"}, Rows: leftRows}
	bj, err := NewBindJoin(left, []string{"u"}, Schema{"u", "v"}, fetch)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(bj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Errorf("rows = %d, want one per left tuple", len(rows))
	}
	if fetchCount != 5 {
		t.Errorf("fetches = %d, want one per distinct key", fetchCount)
	}
}

func TestBindJoinChecksSharedColumns(t *testing.T) {
	// The fetched tuple repeats the key column; mismatches must be dropped.
	fetch := func(_ *Ctx, bind value.Tuple) (engine.BatchIterator, error) {
		return engine.NewSliceBatchIterator([]value.Tuple{value.TupleOf("WRONG", "v")}), nil
	}
	left := vals(Schema{"u"}, value.TupleOf("u1"))
	bj, err := NewBindJoin(left, []string{"u"}, Schema{"u", "v"}, fetch)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(bj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("mismatched shared column kept: %v", rows)
	}
}

func TestBindJoinUnknownVar(t *testing.T) {
	left := vals(Schema{"u"}, value.TupleOf("u1"))
	if _, err := NewBindJoin(left, []string{"ghost"}, Schema{"v"}, nil); err == nil {
		t.Error("unknown bind var accepted")
	}
}

func TestBindJoinFetchError(t *testing.T) {
	sentinel := errors.New("kv down")
	fetch := func(*Ctx, value.Tuple) (engine.BatchIterator, error) { return nil, sentinel }
	left := vals(Schema{"u"}, value.TupleOf("u1"))
	bj, err := NewBindJoin(left, []string{"u"}, Schema{"v"}, fetch)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(bj)
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want fetch error", err)
	}
}

func TestDistinct(t *testing.T) {
	in := vals(Schema{"x"}, value.TupleOf(1), value.TupleOf(1), value.TupleOf(2))
	rows, err := Run(&Distinct{In: in})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("distinct = %v", rows)
	}
}

func TestDistinctSizeHint(t *testing.T) {
	in := vals(Schema{"x"}, value.TupleOf(1), value.TupleOf(1), value.TupleOf(2))
	for _, hint := range []int{-1, 0, 2, 1000} {
		rows, err := Run(&Distinct{In: in, SizeHint: hint})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Errorf("hint %d: distinct = %v", hint, rows)
		}
	}
}

func TestHashJoinBuildSideError(t *testing.T) {
	sentinel := errors.New("right store down")
	left := vals(Schema{"x"}, value.TupleOf(1))
	right := &Source{
		Name: "broken",
		Out:  Schema{"x", "y"},
		BatchFn: func(*Ctx) (engine.BatchIterator, error) {
			return nil, sentinel
		},
	}
	j, err := NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	// Opening succeeds (the build side is materialized lazily); the failure
	// must surface through the batch protocol, as for any stream error.
	it, err := j.Open(nil)
	if err != nil {
		t.Fatalf("Open = %v, want deferred build error", err)
	}
	b := value.GetBatch()
	if _, err := it.NextBatch(b); !errors.Is(err, sentinel) {
		t.Errorf("NextBatch err = %v, want build-side error", err)
	}
	// The failure must be sticky across calls.
	if _, err := it.NextBatch(b); !errors.Is(err, sentinel) {
		t.Errorf("second NextBatch err = %v, want sticky build-side error", err)
	}
	value.PutBatch(b)
	it.Close()
	// Run must also report it.
	if _, err := Run(j); !errors.Is(err, sentinel) {
		t.Errorf("Run err = %v, want build-side error", err)
	}
}

func TestExplainTree(t *testing.T) {
	in := vals(Schema{"x"}, value.TupleOf(1))
	p, _ := NewProject(&Distinct{In: in}, []string{"x"})
	out := Explain(p)
	if out == "" {
		t.Fatal("empty explain")
	}
	for _, want := range []string{"Project", "Distinct", "Values"} {
		if !contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && (indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestSourceNode(t *testing.T) {
	src := &Source{
		Name: "kv.Get(prefs)",
		Out:  Schema{"k"},
		BatchFn: func(*Ctx) (engine.BatchIterator, error) {
			return engine.NewSliceBatchIterator([]value.Tuple{value.TupleOf("a")}), nil
		},
	}
	rows, err := Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || src.Label() != "kv.Get(prefs)" || src.Children() != nil {
		t.Error("source node broken")
	}
}

func TestSourceOpenErrorPropagates(t *testing.T) {
	sentinel := errors.New("store down")
	src := &Source{
		Name:    "broken",
		Out:     Schema{"x"},
		BatchFn: func(*Ctx) (engine.BatchIterator, error) { return nil, sentinel },
	}
	// Error through a whole operator stack.
	p, err := NewProject(&Distinct{In: &Select{In: src}}, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p); !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
	// And through both join sides.
	good := vals(Schema{"x"}, value.TupleOf(1))
	j1, _ := NewHashJoin(src, good)
	if _, err := Run(j1); !errors.Is(err, sentinel) {
		t.Errorf("left err = %v", err)
	}
	j2, _ := NewHashJoin(good, src)
	if _, err := Run(j2); !errors.Is(err, sentinel) {
		t.Errorf("right err = %v", err)
	}
}
