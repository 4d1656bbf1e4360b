package translate

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engines/kvstore"
	"repro/internal/engines/relstore"
	"repro/internal/exec"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/stats"
	"repro/internal/value"
)

func atom(pred string, args ...pivot.Term) pivot.Atom { return pivot.NewAtom(pred, args...) }
func v(name string) pivot.Var                         { return pivot.Var(name) }

func idView(name, over string, arity int) rewrite.View {
	args := make([]pivot.Term, arity)
	for i := range args {
		args[i] = v(string(rune('a' + i)))
	}
	return rewrite.NewView(name, pivot.NewCQ(
		pivot.NewAtom(name, args...), pivot.NewAtom(over, args...)))
}

// fixture: a relational store with R(k, x) indexed on k, and a KV store
// with the same data keyed by k.
func fixture(t testing.TB) (*Planner, *relstore.Store, *kvstore.Store) {
	t.Helper()
	cat := catalog.New()
	stores := NewStores()
	rs := relstore.New("pg")
	ks := kvstore.New("redis")
	stores.AddRel(rs)
	stores.AddKV(ks)

	relFrag := &catalog.Fragment{
		Name: "FRel", Dataset: "d", View: idView("FRel", "R", 2), Store: "pg",
		Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "r", Columns: []string{"k", "x"}, IndexCols: []int{0}},
		Stats:  stats.FragmentStats{Rows: 1000, Distinct: []int64{1000, 50}},
	}
	kvFrag := &catalog.Fragment{
		Name: "FKV", Dataset: "d", View: idView("FKV", "R", 2), Store: "redis",
		Layout: catalog.Layout{Kind: catalog.LayoutKV, Collection: "rkv", KeyCol: 0},
		Access: "bf",
		Stats:  stats.FragmentStats{Rows: 1000, Distinct: []int64{1000, 50}},
	}
	for _, f := range []*catalog.Fragment{relFrag, kvFrag} {
		if err := cat.Register(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.CreateTable("r", "k", "x"); err != nil {
		t.Fatal(err)
	}
	if err := rs.CreateIndex("r", "k"); err != nil {
		t.Fatal(err)
	}
	if err := ks.CreateCollection("rkv"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		row := value.TupleOf(i, i*10)
		if err := rs.Insert("r", row); err != nil {
			t.Fatal(err)
		}
		if err := ks.Append("rkv", KVKey(value.Int(i)), row); err != nil {
			t.Fatal(err)
		}
	}
	return &Planner{Catalog: cat, Stores: stores}, rs, ks
}

func TestBuildSimpleAccess(t *testing.T) {
	p, _, _ := fixture(t)
	r := pivot.NewCQ(atom("Q", v("x")), atom("FRel", pivot.CInt(3), v("x")))
	plan, err := p.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Run(plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !value.Equal(rows[0][0], value.Int(30)) {
		t.Errorf("rows = %v", rows)
	}
}

func TestBuildKVAccessWithConstKey(t *testing.T) {
	p, _, _ := fixture(t)
	r := pivot.NewCQ(atom("Q", v("x")), atom("FKV", pivot.CInt(4), v("x")))
	plan, err := p.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Run(plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !value.Equal(rows[0][0], value.Int(40)) {
		t.Errorf("rows = %v", rows)
	}
}

func TestBuildKVWithoutKeyInfeasible(t *testing.T) {
	p, _, _ := fixture(t)
	r := pivot.NewCQ(atom("Q", v("k"), v("x")), atom("FKV", v("k"), v("x")))
	if _, err := p.Build(r); err == nil {
		t.Error("KV scan plan accepted")
	}
}

func TestBuildUnknownFragment(t *testing.T) {
	p, _, _ := fixture(t)
	r := pivot.NewCQ(atom("Q", v("x")), atom("Ghost", v("x")))
	if _, err := p.Build(r); err == nil {
		t.Error("unknown fragment accepted")
	}
}

func TestBuildArityMismatch(t *testing.T) {
	p, _, _ := fixture(t)
	r := pivot.NewCQ(atom("Q", v("x")), atom("FRel", v("x")))
	if _, err := p.Build(r); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestBuildRepeatedVariable(t *testing.T) {
	p, rs, _ := fixture(t)
	if err := rs.Insert("r", value.TupleOf(77, 77)); err != nil {
		t.Fatal(err)
	}
	r := pivot.NewCQ(atom("Q", v("k")), atom("FRel", v("k"), v("k")))
	plan, err := p.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Run(plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	// Rows where k==x: (0,0) and (77,77).
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestBuildHeadConstant(t *testing.T) {
	p, _, _ := fixture(t)
	r := pivot.NewCQ(atom("Q", v("x"), pivot.CStr("tag")), atom("FRel", pivot.CInt(1), v("x")))
	plan, err := p.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Run(plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !value.Equal(rows[0][1], value.Str("tag")) {
		t.Errorf("rows = %v", rows)
	}
}

func TestChooseBestPrefersKVForKeyLookup(t *testing.T) {
	p, _, _ := fixture(t)
	// Two rewritings answer the key lookup: relational index access vs KV
	// get. The cost model must prefer the KV store.
	rKV := pivot.NewCQ(atom("Q", v("x")), atom("FKV", pivot.CInt(3), v("x")))
	rRel := pivot.NewCQ(atom("Q", v("x")), atom("FRel", pivot.CInt(3), v("x")))
	best, plans, err := p.ChooseBest([]pivot.CQ{rRel, rKV})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %d", len(plans))
	}
	if best.Rewriting.Body[0].Pred != "FKV" {
		t.Errorf("best plan uses %s, want FKV\nrel cost=%v kv cost=%v",
			best.Rewriting.Body[0].Pred, plans[1].Cost, plans[0].Cost)
	}
}

func TestChooseBestSkipsInfeasible(t *testing.T) {
	p, _, _ := fixture(t)
	rBad := pivot.NewCQ(atom("Q", v("k"), v("x")), atom("FKV", v("k"), v("x")))
	rOK := pivot.NewCQ(atom("Q", v("k"), v("x")), atom("FRel", v("k"), v("x")))
	best, _, err := p.ChooseBest([]pivot.CQ{rBad, rOK})
	if err != nil {
		t.Fatal(err)
	}
	if best.Rewriting.Body[0].Pred != "FRel" {
		t.Errorf("best = %v", best.Rewriting)
	}
	if _, _, err := p.ChooseBest([]pivot.CQ{rBad}); err == nil {
		t.Error("all-infeasible rewritings accepted")
	}
}

func TestBindJoinPlanShape(t *testing.T) {
	p, _, _ := fixture(t)
	// FRel produces k; FKV consumes it.
	r := pivot.NewCQ(atom("Q", v("k"), v("x"), v("y")),
		atom("FRel", v("k"), v("x")),
		atom("FKV", v("k"), v("y")))
	plan, err := p.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exec.Explain(plan.Root), "BindJoin") {
		t.Errorf("plan lacks BindJoin:\n%s", exec.Explain(plan.Root))
	}
	rows, err := exec.Run(plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	// Every k joins with itself: x and y agree (both i*10).
	if len(rows) != 10 {
		t.Errorf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if !value.Equal(row[1], row[2]) {
			t.Errorf("bindjoin mismatch: %v", row)
		}
	}
}

func TestPlanExplainFields(t *testing.T) {
	p, _, _ := fixture(t)
	r := pivot.NewCQ(atom("Q", v("x")), atom("FRel", pivot.CInt(3), v("x")))
	plan, err := p.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	for _, want := range []string{"rewriting:", "est. cost:", "pg.access(FRel)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestKVKeyDeterministic(t *testing.T) {
	if KVKey(value.Int(3)) != KVKey(value.Int(3)) {
		t.Error("KVKey unstable")
	}
	if KVKey(value.Int(3)) == KVKey(value.Str("3")) {
		t.Error("KVKey collides across types")
	}
}

func TestStoresRegistry(t *testing.T) {
	s := NewStores()
	rs := relstore.New("a")
	s.AddRel(rs)
	if e, ok := s.Engine("a"); !ok || e.Name() != "a" {
		t.Error("Engine lookup failed")
	}
	if _, ok := s.Engine("ghost"); ok {
		t.Error("ghost engine found")
	}
	if len(s.All()) != 1 {
		t.Errorf("All = %d", len(s.All()))
	}
}

func TestDisableDelegationAblation(t *testing.T) {
	p, rs, _ := fixture(t)
	if _, err := rs.CreateTable("s", "k", "y"); err != nil {
		t.Fatal(err)
	}
	if err := rs.InsertMany("s", []value.Tuple{
		value.TupleOf(1, "a"), value.TupleOf(2, "b"),
	}); err != nil {
		t.Fatal(err)
	}
	sFrag := &catalog.Fragment{
		Name: "FS", Dataset: "d", View: idView("FS", "S", 2), Store: "pg",
		Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "s", Columns: []string{"k", "y"}},
		Stats:  stats.FragmentStats{Rows: 2},
	}
	if err := p.Catalog.Register(sFrag); err != nil {
		t.Fatal(err)
	}
	r := pivot.NewCQ(atom("Q", v("k"), v("x"), v("y")),
		atom("FRel", v("k"), v("x")),
		atom("FS", v("k"), v("y")))

	planDelegated, err := p.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exec.Explain(planDelegated.Root), "delegate(2 atoms)") {
		t.Errorf("expected delegation:\n%s", exec.Explain(planDelegated.Root))
	}

	p.DisableDelegation = true
	planLocal, err := p.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exec.Explain(planLocal.Root), "delegate") {
		t.Errorf("delegation not disabled:\n%s", exec.Explain(planLocal.Root))
	}
	// Both plans must return the same rows.
	a, err := exec.Run(planDelegated.Root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exec.Run(planLocal.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("delegated %d rows vs local %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for _, row := range a {
		seen[row.Key()] = true
	}
	for _, row := range b {
		if !seen[row.Key()] {
			t.Errorf("local plan row %v missing from delegated plan", row)
		}
	}
}

func TestAccessErrorPaths(t *testing.T) {
	p, _, _ := fixture(t)
	// KV access without its key must fail at access level too (belt and
	// braces under the feasibility check).
	kvFrag, _ := p.Catalog.Get("FKV")
	kv, err := p.Stores.Container(kvFrag)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Open(context.Background(), nil, nil); err == nil {
		t.Error("KV access without key accepted")
	}
	// Unknown store name.
	ghost := &catalog.Fragment{
		Name: "FGhost", Dataset: "d", View: idView("FGhost", "G", 1), Store: "nowhere",
		Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "g", Columns: []string{"a"}},
	}
	if _, err := p.Stores.Container(ghost); !errors.Is(err, ErrUnknownStore) {
		t.Errorf("container on unknown store: err = %v, want ErrUnknownStore", err)
	}
}

func TestBuildRejectsHeadNull(t *testing.T) {
	p, _, _ := fixture(t)
	r := pivot.CQ{
		Head: pivot.Atom{Pred: "Q", Args: []pivot.Term{pivot.Null(1)}},
		Body: []pivot.Atom{atom("FRel", v("k"), v("x"))},
	}
	if _, err := p.Build(r); err == nil {
		t.Error("head null accepted")
	}
}

func TestEstimatePrefersIndexedFragment(t *testing.T) {
	p, _, _ := fixture(t)
	// FRel has an index on column 0: constant selection there should be
	// estimated cheaper than an unindexed selection on column 1.
	rIndexed := pivot.NewCQ(atom("Q", v("x")), atom("FRel", pivot.CInt(3), v("x")))
	rScan := pivot.NewCQ(atom("Q", v("k")), atom("FRel", v("k"), pivot.CInt(30)))
	pi, err := p.Build(rIndexed)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := p.Build(rScan)
	if err != nil {
		t.Fatal(err)
	}
	if pi.Cost >= ps.Cost {
		t.Errorf("indexed access (%.2f) should cost less than scan (%.2f)", pi.Cost, ps.Cost)
	}
}
