// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - A1: delegation of same-store subqueries (paper §III, "identify the
//     largest subquery that can be delegated") vs evaluating every join in
//     the mediator;
//   - A2: the plan cache (rewriting is expensive; workloads repeat query
//     shapes) vs re-rewriting every query;
//   - A3: provenance-directed candidate generation is ablated by E3's naive
//     C&B benchmarks (same search, no provenance pruning).
package repro

import (
	"context"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engines/engine"
	"repro/internal/engines/parstore"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/value"
)

// ablationSystem: Users and Orders in one relational store — the delegation
// sweet spot.
func ablationSystem(disableDelegation, disableCache bool) *core.System {
	s := core.New(core.Options{
		DisableDelegation: disableDelegation,
		DisablePlanCache:  disableCache,
	})
	s.AddRelStore("pg")
	idView := func(name, over string, cols ...string) *catalog.Fragment {
		args := make([]pivot.Term, len(cols))
		for i, c := range cols {
			args[i] = pivot.Var(c)
		}
		return &catalog.Fragment{
			Name: name, Dataset: "mkt",
			View: rewrite.NewView(name, pivot.NewCQ(
				pivot.NewAtom(name, args...), pivot.NewAtom(over, args...))),
			Store: "pg",
			Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: over,
				Columns: cols, IndexCols: []int{0}},
		}
	}
	m := datagen.NewMarketplace(benchCfg())
	users := idView("FUsers", "Users", "uid", "name", "city")
	orders := idView("FOrders", "Orders", "oid", "uid", "pid", "amount")
	orders.Layout.IndexCols = []int{1}
	for f, rows := range map[*catalog.Fragment][]value.Tuple{users: m.Users, orders: m.Orders} {
		if err := f.Validate(); err != nil {
			panic(err)
		}
		if err := s.RegisterFragment(f); err != nil {
			panic(err)
		}
		if err := s.Materialize(f.Name, rows); err != nil {
			panic(err)
		}
	}
	return s
}

var profileJoinQuery = pivot.NewCQ(
	pivot.NewAtom("Q", pivot.Var("u"), pivot.Var("n"), pivot.Var("p")),
	pivot.NewAtom("Users", pivot.Var("u"), pivot.Var("n"), pivot.CStr("paris")),
	pivot.NewAtom("Orders", pivot.Var("o"), pivot.Var("u"), pivot.Var("p"), pivot.Var("amt")))

var (
	ablOnce       sync.Once
	ablDelegated  *core.System
	ablMediator   *core.System
	ablNoCacheSys *core.System
	ablCachedSys  *core.System
)

func setupAblation(b *testing.B) {
	b.Helper()
	ablOnce.Do(func() {
		ablDelegated = ablationSystem(false, false)
		ablMediator = ablationSystem(true, false)
		ablNoCacheSys = ablationSystem(false, true)
		ablCachedSys = ablationSystem(false, false)
	})
}

func benchAblationQuery(b *testing.B, s *core.System) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Query(profileJoinQuery)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// A1 — delegation on/off.
func BenchmarkAblationDelegationOn(b *testing.B) {
	setupAblation(b)
	benchAblationQuery(b, ablDelegated)
}

func BenchmarkAblationDelegationOffMediatorJoin(b *testing.B) {
	setupAblation(b)
	benchAblationQuery(b, ablMediator)
}

// A2 — plan cache on/off (same system, cache toggled).
func BenchmarkAblationPlanCacheOn(b *testing.B) {
	setupAblation(b)
	benchAblationQuery(b, ablCachedSys)
}

func BenchmarkAblationPlanCacheOffRewriteEachQuery(b *testing.B) {
	setupAblation(b)
	benchAblationQuery(b, ablNoCacheSys)
}

// A3 — partition scaling of the parallel substrate: the same filtered scan
// over 1 / 2 / 4 / 8 partitions ("the delegated subquery will be evaluated
// in parallel fashion", paper §III).
func benchParstoreScan(b *testing.B, partitions int) {
	st := parstore.New("spark", partitions)
	if _, err := st.CreateTable("t", "k", "k", "v"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200_000; i++ {
		if err := st.Insert("t", value.TupleOf(i, i%97)); err != nil {
			b.Fatal(err)
		}
	}
	filter := []engine.EqFilter{{Col: 1, Val: value.Int(13)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := st.SelectBatchCounted(context.Background(), "t", filter, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := engine.DrainBatches(it)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkAblationParstore1Partition(b *testing.B)  { benchParstoreScan(b, 1) }
func BenchmarkAblationParstore2Partitions(b *testing.B) { benchParstoreScan(b, 2) }
func BenchmarkAblationParstore4Partitions(b *testing.B) { benchParstoreScan(b, 4) }
func BenchmarkAblationParstore8Partitions(b *testing.B) { benchParstoreScan(b, 8) }
