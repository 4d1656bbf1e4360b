package core

import (
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/pivot"
	"repro/internal/stats"
	"repro/internal/value"
)

// replanSystem builds a two-fragment system (A and B, both relational on
// one store) whose join order is decided purely by the fragments' row
// statistics, so flipping the statistics must flip the order.
func replanSystem(t *testing.T) *System {
	t.Helper()
	s := New(Options{})
	s.AddRelStore("pg")
	frags := []*catalog.Fragment{
		{
			Name: "FA", Dataset: "d", View: identityView("FA", "A", 2), Store: "pg",
			Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "a", Columns: []string{"x", "y"}},
		},
		{
			Name: "FB", Dataset: "d", View: identityView("FB", "B", 2), Store: "pg",
			Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "b", Columns: []string{"y", "z"}},
		},
	}
	for _, f := range frags {
		if err := s.RegisterFragment(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Materialize("FA", []value.Tuple{value.TupleOf("x1", "y1")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize("FB", []value.Tuple{value.TupleOf("y1", "z1")}); err != nil {
		t.Fatal(err)
	}
	return s
}

// setRows installs row statistics through the same path the incremental
// maintenance layer uses (Catalog.SetStats — no catalog-epoch bump).
func setRows(t *testing.T, s *System, name string, rows int64) {
	t.Helper()
	if err := s.Catalog.SetStats(name, stats.FragmentStats{
		Rows: rows, Distinct: []int64{rows, 50},
	}); err != nil {
		t.Fatal(err)
	}
}

// bumpDataEpoch advances the data generation without changing plan shapes,
// exactly as a maintenance delta does.
func bumpDataEpoch(t *testing.T, s *System) {
	t.Helper()
	if err := s.ApplyFragmentDelta("FA", nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDriftReplansPreparedExactlyOnce drives the drift guard through a
// prepared statement with concurrent binds: a data-epoch move whose
// statistics drift crosses the threshold triggers exactly one lazy
// re-plan regardless of Exec concurrency, and the join order flips.
func TestDriftReplansPreparedExactlyOnce(t *testing.T) {
	s := replanSystem(t)
	setRows(t, s, "FA", 10)
	setRows(t, s, "FB", 10000)

	q := pivot.NewCQ(atom("Q", v("x"), v("z")),
		atom("A", v("x"), v("y")),
		atom("B", v("y"), v("z")))
	// Parameterize on z (the FB side) so FA's scan cardinality stays live
	// in the cost model and the drifted statistics must flip the order.
	p, err := s.Prepare(q, v("z"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.bind([]value.Value{value.Str("z1")})
	if err != nil {
		t.Fatal(err)
	}
	if c := plan.Clauses[0].Fragment; c != "FA" {
		t.Fatalf("initial bound order starts with %s, want FA", c)
	}
	if got := s.Replans(); got != 0 {
		t.Fatalf("replans after prepare+bind = %d", got)
	}

	setRows(t, s, "FA", 10000)
	setRows(t, s, "FB", 10)
	bumpDataEpoch(t, s)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.bind([]value.Value{value.Str("z1")}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := s.Replans(); got != 1 {
		t.Fatalf("replans after concurrent drifted binds = %d, want exactly 1", got)
	}
	plan2, err := p.bind([]value.Value{value.Str("z1")})
	if err != nil {
		t.Fatal(err)
	}
	if c := plan2.Clauses[0].Fragment; c != "FB" {
		t.Errorf("re-planned bound order starts with %s, want FB\n%s", c, plan2.Explain())
	}
	if got := s.Replans(); got != 1 {
		t.Fatalf("replans settled = %d, want 1", got)
	}

	// A no-drift epoch move keeps the current plan generation.
	bumpDataEpoch(t, s)
	if _, err := p.bind([]value.Value{value.Str("z1")}); err != nil {
		t.Fatal(err)
	}
	if got := s.Replans(); got != 1 {
		t.Fatalf("replans after no-drift epoch move = %d, want 1", got)
	}
}
