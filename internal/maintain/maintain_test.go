package maintain

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/value"
)

func atom(pred string, args ...pivot.Term) pivot.Atom { return pivot.NewAtom(pred, args...) }
func v(name string) pivot.Var                         { return pivot.Var(name) }

func view(name string, head []pivot.Term, body ...pivot.Atom) rewrite.View {
	return rewrite.NewView(name, pivot.NewCQ(pivot.NewAtom(name, head...), body...))
}

// testDeploy builds a five-store system with one maintained fragment per
// layout:
//
//	FR(x,y)       :- R(x,y)                  relational (identity)
//	FK(x,y)       :- R(x,y)                  key-value, keyed by x
//	FD(x,y)       :- R(x,y)                  document
//	FT(x,y)       :- R(x,y)                  full-text
//	FJ(x,z)       :- R(x,y) ∧ S(y,z)         parallel (join, projects y away)
//	FSelf(x,z)    :- R(x,y) ∧ R(y,z)         relational (self-join)
func testDeploy(t testing.TB) (*core.System, *Maintainer) {
	t.Helper()
	sys := core.New(core.Options{})
	sys.AddRelStore("pg")
	sys.AddKVStore("redis")
	sys.AddDocStore("mongo")
	sys.AddTextStore("solr")
	sys.AddParStore("spark", 4)
	m := New(sys)
	if err := m.DefineBase("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineBase("S", 2); err != nil {
		t.Fatal(err)
	}
	xy := []pivot.Term{v("x"), v("y")}
	frags := []*catalog.Fragment{
		{
			Name: "FR", Dataset: "d", View: view("FR", xy, atom("R", v("x"), v("y"))),
			Store:  "pg",
			Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "fr", Columns: []string{"x", "y"}, IndexCols: []int{0}},
		},
		{
			Name: "FK", Dataset: "d", View: view("FK", xy, atom("R", v("x"), v("y"))),
			Store:  "redis",
			Layout: catalog.Layout{Kind: catalog.LayoutKV, Collection: "fk", KeyCol: 0},
			Access: "bf",
		},
		{
			Name: "FD", Dataset: "d", View: view("FD", xy, atom("R", v("x"), v("y"))),
			Store:  "mongo",
			Layout: catalog.Layout{Kind: catalog.LayoutDoc, Collection: "fd", DocPaths: []string{"k.x", "k.y"}, IndexCols: []int{0}},
		},
		{
			Name: "FT", Dataset: "d", View: view("FT", xy, atom("R", v("x"), v("y"))),
			Store:  "solr",
			Layout: catalog.Layout{Kind: catalog.LayoutText, Collection: "ft", Columns: []string{"x", "y"}, TextField: "y"},
		},
		{
			Name: "FJ", Dataset: "d", View: view("FJ", []pivot.Term{v("x"), v("z")},
				atom("R", v("x"), v("y")), atom("S", v("y"), v("z"))),
			Store:  "spark",
			Layout: catalog.Layout{Kind: catalog.LayoutPar, Collection: "fj", Columns: []string{"x", "z"}, PartitionCol: 0},
		},
		{
			Name: "FSelf", Dataset: "d", View: view("FSelf", []pivot.Term{v("x"), v("z")},
				atom("R", v("x"), v("y")), atom("R", v("y"), v("z"))),
			Store:  "pg",
			Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "fself", Columns: []string{"x", "z"}},
		},
	}
	for _, f := range frags {
		if err := m.RegisterFragment(f); err != nil {
			t.Fatalf("register %s: %v", f.Name, err)
		}
	}
	return sys, m
}

// naiveExtent recomputes a fragment's extent (tuple key → derivation
// count) by brute-force nested-loop evaluation over the base multisets —
// the independent reference implementation the maintainer is checked
// against.
func naiveExtent(m *Maintainer, f *catalog.Fragment) map[string]int64 {
	def := f.View.Def
	counts := map[string]int64{}
	var rec func(i int, bind map[pivot.Var]value.Value)
	rec = func(i int, bind map[pivot.Var]value.Value) {
		if i == len(def.Body) {
			t := make(value.Tuple, def.Head.Arity())
			for j, term := range def.Head.Args {
				switch tt := term.(type) {
				case pivot.Var:
					t[j] = bind[tt]
				case pivot.Const:
					t[j] = value.Of(tt.V)
				}
			}
			counts[t.Key()]++
			return
		}
		a := def.Body[i]
		for _, row := range m.BaseRows(a.Pred) {
			if len(row) != a.Arity() {
				continue
			}
			nb := map[pivot.Var]value.Value{}
			for kk, vv := range bind {
				nb[kk] = vv
			}
			ok := true
			for p, term := range a.Args {
				switch tt := term.(type) {
				case pivot.Const:
					if !value.Equal(row[p], value.Of(tt.V)) {
						ok = false
					}
				case pivot.Var:
					if b, bound := nb[tt]; bound {
						if !value.Equal(row[p], b) {
							ok = false
						}
					} else {
						nb[tt] = row[p]
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				rec(i+1, nb)
			}
		}
	}
	rec(0, map[pivot.Var]value.Value{})
	for k, n := range counts {
		if n == 0 {
			delete(counts, k)
		}
	}
	return counts
}

// sortedKeys renders stored rows as sorted tuple keys.
func sortedKeys(rows []value.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Key()
	}
	sort.Strings(out)
	return out
}

// checkFragment asserts that a fragment's count table matches the naive
// recompute and that the store's physical contents equal the support set.
func checkFragment(t *testing.T, sys *core.System, m *Maintainer, name string) {
	t.Helper()
	f, _ := sys.Catalog.Get(name)
	want := naiveExtent(m, f)
	got := m.FragmentCounts(name)
	if len(got) != len(want) {
		t.Errorf("%s: count table has %d entries, want %d", name, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: count[%q] = %d, want %d", name, k, got[k], n)
		}
	}
	stored, err := sys.FragmentRows(name)
	if err != nil {
		t.Fatalf("%s: read back: %v", name, err)
	}
	wantKeys := make([]string, 0, len(want))
	for k := range want {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	gotKeys := sortedKeys(stored)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("%s: store has %d rows, want %d\n got: %v\nwant: %v",
			name, len(gotKeys), len(wantKeys), gotKeys, wantKeys)
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("%s: store row %d = %q, want %q", name, i, gotKeys[i], wantKeys[i])
		}
	}
	// Statistics track the stored support set.
	st, ok := sys.Catalog.StatsFor(name)
	if !ok {
		t.Fatalf("%s: no stats", name)
	}
	if st.Rows != int64(len(wantKeys)) {
		t.Errorf("%s: stats rows = %d, want %d", name, st.Rows, len(wantKeys))
	}
}

func checkAll(t *testing.T, sys *core.System, m *Maintainer) {
	t.Helper()
	for _, name := range []string{"FR", "FK", "FD", "FT", "FJ", "FSelf"} {
		checkFragment(t, sys, m, name)
	}
}

func TestInsertPropagatesToAllLayouts(t *testing.T) {
	sys, m := testDeploy(t)
	rep, err := sys.InsertInto("R", value.TupleOf("a", "b"), value.TupleOf("b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 2 {
		t.Errorf("report rows = %d, want 2", rep.Rows)
	}
	if d := rep.Fragments["FR"]; d.Added != 2 {
		t.Errorf("FR delta = %+v, want 2 adds", d)
	}
	// FSelf gains R(a,b)⋈R(b,c) → (a,c).
	if d := rep.Fragments["FSelf"]; d.Added != 1 {
		t.Errorf("FSelf delta = %+v, want 1 add", d)
	}
	if _, err := sys.InsertInto("S", value.TupleOf("c", "s1")); err != nil {
		t.Fatal(err)
	}
	checkAll(t, sys, m)
}

func TestDeleteWithMultipleDerivations(t *testing.T) {
	sys, m := testDeploy(t)
	// FJ(x,z) :- R(x,y) ∧ S(y,z): two y-paths derive the same (a,z1).
	mustWrite(t, sys, "R", value.TupleOf("a", "y1"), value.TupleOf("a", "y2"))
	mustWrite(t, sys, "S", value.TupleOf("y1", "z1"), value.TupleOf("y2", "z1"))
	if got := m.FragmentCounts("FJ")[value.TupleOf("a", "z1").Key()]; got != 2 {
		t.Fatalf("FJ count = %d, want 2", got)
	}
	// Removing one derivation must keep the stored tuple.
	rep, err := sys.DeleteFrom("R", value.TupleOf("a", "y1"))
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.Fragments["FJ"]; d.Removed != 0 {
		t.Errorf("FJ delta after first delete = %+v, want 0 removals", d)
	}
	rows, _ := sys.FragmentRows("FJ")
	if len(rows) != 1 {
		t.Fatalf("FJ store = %v, want the surviving derivation", rows)
	}
	// Removing the second derivation deletes the tuple.
	rep, err = sys.DeleteFrom("R", value.TupleOf("a", "y2"))
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.Fragments["FJ"]; d.Removed != 1 {
		t.Errorf("FJ delta after second delete = %+v, want 1 removal", d)
	}
	checkAll(t, sys, m)
}

func TestSelfJoinDeltas(t *testing.T) {
	sys, m := testDeploy(t)
	// Insert both sides of a self-join in ONE batch: the telescoping sum
	// must count R(a,b)⋈R(b,c) exactly once.
	mustWrite(t, sys, "R", value.TupleOf("a", "b"), value.TupleOf("b", "c"), value.TupleOf("c", "a"))
	checkAll(t, sys, m)
	// Delete one edge; (a,c), (b,a) via deleted edge must go.
	if _, err := sys.DeleteFrom("R", value.TupleOf("b", "c")); err != nil {
		t.Fatal(err)
	}
	checkAll(t, sys, m)
}

func TestDeleteAbsentTupleFails(t *testing.T) {
	sys, m := testDeploy(t)
	mustWrite(t, sys, "R", value.TupleOf("a", "b"))
	if _, err := sys.DeleteFrom("R", value.TupleOf("nope", "nope")); !errors.Is(err, core.ErrBadWrite) {
		t.Fatalf("delete absent: err = %v, want ErrBadWrite", err)
	}
	// The failed batch must not have changed anything.
	checkAll(t, sys, m)
}

func TestUnknownRelationAndArity(t *testing.T) {
	sys, _ := testDeploy(t)
	if _, err := sys.InsertInto("Nope", value.TupleOf("a", "b")); !errors.Is(err, core.ErrUnknownRelation) {
		t.Fatalf("unknown relation: err = %v", err)
	}
	if _, err := sys.InsertInto("R", value.TupleOf("a", "b", "c")); !errors.Is(err, core.ErrBadWrite) {
		t.Fatalf("arity mismatch: err = %v", err)
	}
}

func TestNoMaintainerMeansNoDML(t *testing.T) {
	sys := core.New(core.Options{})
	if _, err := sys.InsertInto("R", value.TupleOf("a", "b")); !errors.Is(err, core.ErrNoDML) {
		t.Fatalf("detached system: err = %v, want ErrNoDML", err)
	}
}

func TestDMLBumpsDataEpochNotCatalogEpoch(t *testing.T) {
	sys, _ := testDeploy(t)
	ce, de := sys.CacheEpoch(), sys.DataEpoch()
	mustWrite(t, sys, "R", value.TupleOf("a", "b"))
	if sys.CacheEpoch() != ce {
		t.Errorf("catalog epoch moved %d → %d on DML", ce, sys.CacheEpoch())
	}
	if sys.DataEpoch() <= de {
		t.Errorf("data epoch did not advance (%d → %d)", de, sys.DataEpoch())
	}
}

func TestQueriesSeeWrites(t *testing.T) {
	sys, _ := testDeploy(t)
	mustWrite(t, sys, "R", value.TupleOf("u1", "p1"))
	mustWrite(t, sys, "S", value.TupleOf("p1", "z9"))
	q := pivot.NewCQ(atom("Q", v("x"), v("z")),
		atom("R", v("x"), v("y")), atom("S", v("y"), v("z")))
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0].String(), "u1") {
		t.Fatalf("query after write: rows = %v", res.Rows)
	}
	// Delete and re-run: the query must see the new data.
	if _, err := sys.DeleteFrom("R", value.TupleOf("u1", "p1")); err != nil {
		t.Fatal(err)
	}
	res, err = sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("query after delete: rows = %v", res.Rows)
	}
}

func TestRecomputeMatchesIncremental(t *testing.T) {
	sys, m := testDeploy(t)
	mustWrite(t, sys, "R", value.TupleOf("a", "b"), value.TupleOf("b", "c"))
	mustWrite(t, sys, "S", value.TupleOf("b", "s1"), value.TupleOf("c", "s2"))
	before := m.FragmentCounts("FJ")
	if err := m.Recompute("FJ"); err != nil {
		t.Fatal(err)
	}
	after := m.FragmentCounts("FJ")
	if len(before) != len(after) {
		t.Fatalf("recompute changed count table: %v vs %v", before, after)
	}
	for k, n := range before {
		if after[k] != n {
			t.Errorf("recompute count[%q] = %d, want %d", k, after[k], n)
		}
	}
	checkAll(t, sys, m)
}

func mustWrite(t testing.TB, sys *core.System, pred string, rows ...value.Tuple) {
	t.Helper()
	if _, err := sys.InsertInto(pred, rows...); err != nil {
		t.Fatalf("insert into %s: %v", pred, err)
	}
}
