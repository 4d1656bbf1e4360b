package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/pivot"
	"repro/internal/value"
)

// maintainedService deploys the materialized marketplace with the write
// path attached and wraps it in a service.
func maintainedService(t testing.TB, opts Options) *Service {
	t.Helper()
	m := testMarketplace(t)
	if _, err := m.Maintained(); err != nil {
		t.Fatal(err)
	}
	return New(m.Sys, opts)
}

func TestServiceWriteReadBack(t *testing.T) {
	svc := maintainedService(t, Options{})
	ctx := context.Background()

	res, err := svc.Insert(ctx, "Users", value.TupleOf("u-new", "zed", "nice"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Deleted != 0 {
		t.Fatalf("write result = %+v", res)
	}
	if d := res.Fragments["FUsers"]; d.Added != 1 {
		t.Fatalf("FUsers delta = %+v, want 1 add", d)
	}
	q, err := svc.Query(ctx, pivot.NewCQ(
		pivot.NewAtom("Q", v("n")),
		pivot.NewAtom("Users", pivot.CStr("u-new"), v("n"), v("c"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 {
		t.Fatalf("query after insert: rows = %v", q.Rows)
	}

	if _, err := svc.Delete(ctx, "Users", value.TupleOf("u-new", "zed", "nice")); err != nil {
		t.Fatal(err)
	}
	q, err = svc.Query(ctx, pivot.NewCQ(
		pivot.NewAtom("Q", v("n")),
		pivot.NewAtom("Users", pivot.CStr("u-new"), v("n"), v("c"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 0 {
		t.Fatalf("query after delete: rows = %v", q.Rows)
	}

	snap := svc.Snapshot()
	if snap.Writes != 2 || snap.RowsWritten != 2 {
		t.Errorf("metrics = writes %d rowsWritten %d, want 2/2", snap.Writes, snap.RowsWritten)
	}
}

func TestWriteBatchMixedOps(t *testing.T) {
	svc := maintainedService(t, Options{})
	ctx := context.Background()
	res, err := svc.WriteBatch(ctx, []WriteOp{
		{Relation: "Prefs", Rows: []value.Tuple{value.TupleOf("u00001", "tz", "utc"), value.TupleOf("u00002", "tz", "cet")}},
		{Delete: true, Relation: "Prefs", Rows: []value.Tuple{value.TupleOf("u00001", "tz", "utc")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2 || res.Deleted != 1 {
		t.Fatalf("batch result = %+v", res)
	}
}

func TestWriteErrorsAreTyped(t *testing.T) {
	svc := maintainedService(t, Options{})
	ctx := context.Background()
	if _, err := svc.Insert(ctx, "Nope", value.TupleOf("x")); !errors.Is(err, core.ErrUnknownRelation) {
		t.Errorf("unknown relation: err = %v", err)
	}
	if _, err := svc.Insert(ctx, "Users", value.TupleOf("too", "short")); !errors.Is(err, core.ErrBadWrite) {
		t.Errorf("arity: err = %v", err)
	}
	// A service over a system without a maintainer refuses writes.
	bare := New(testMarketplace(t).Sys, Options{})
	if _, err := bare.Insert(ctx, "Users", value.TupleOf("a", "b", "c")); !errors.Is(err, core.ErrNoDML) {
		t.Errorf("no maintainer: err = %v", err)
	}
}

// TestDMLPreservesPlanCache is the epoch-split acceptance guard: 1000
// writes through the service must leave the single-flight rewriting cache
// and server-side prepared statements warm — exactly zero additional PACB
// rewrites when the same statement and query run again — while the data
// epoch records every applied delta.
func TestDMLPreservesPlanCache(t *testing.T) {
	svc := maintainedService(t, Options{})
	ctx := context.Background()

	var prepares atomic.Int64
	inner := svc.prepare
	svc.prepare = func(q pivot.CQ, params ...pivot.Var) (*core.Prepared, error) {
		prepares.Add(1)
		return inner(q, params...)
	}

	// Warm one prepared statement and one ad-hoc query shape.
	st, err := svc.Prepare(ctx, "cq", `Q(pid, qty) :- Carts('u00001', pid, qty)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Execute(ctx, value.Str("u00002")); err != nil {
		t.Fatal(err)
	}
	adhoc := pivot.NewCQ(
		pivot.NewAtom("QV", v("p"), v("d")),
		pivot.NewAtom("Visits", pivot.CStr("u00003"), v("p"), v("d")))
	if _, err := svc.Query(ctx, adhoc); err != nil {
		t.Fatal(err)
	}
	warm := prepares.Load()
	cacheEntries := svc.Snapshot().CacheEntries
	catalogEpoch := svc.System().CacheEpoch()
	dataEpoch := svc.System().DataEpoch()

	// 1000 writes: 500 inserts into Visits, then the same 500 deleted.
	// Visits feeds both the identity fragment FVisits and the materialized
	// purchase-history join FPH, so every write exercises delta joins.
	rows := make([]value.Tuple, 500)
	for i := range rows {
		rows[i] = value.TupleOf(fmt.Sprintf("u%05d", 1+i%40), fmt.Sprintf("pX%03d", i), int64(i))
	}
	for _, r := range rows {
		if _, err := svc.Insert(ctx, "Visits", r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rows {
		if _, err := svc.Delete(ctx, "Visits", r); err != nil {
			t.Fatal(err)
		}
	}

	// Re-execute the prepared statement and the cached query shape.
	if _, err := st.Execute(ctx, value.Str("u00002")); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Query(ctx, adhoc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("ad-hoc query shape fell out of the rewriting cache after DML")
	}
	if got := prepares.Load(); got != warm {
		t.Errorf("PACB rewrites after 1k writes = %d, want %d (exactly 0 new)", got, warm)
	}
	if got := svc.Snapshot().CacheEntries; got != cacheEntries {
		t.Errorf("cache entries %d → %d across DML", cacheEntries, got)
	}
	if got := svc.System().CacheEpoch(); got != catalogEpoch {
		t.Errorf("catalog epoch moved %d → %d on DML", catalogEpoch, got)
	}
	if got := svc.System().DataEpoch(); got < dataEpoch+1000 {
		t.Errorf("data epoch advanced only %d → %d across 1000 writes", dataEpoch, got)
	}
	snap := svc.Snapshot()
	if snap.Writes != 1000 || snap.RowsWritten != 1000 {
		t.Errorf("write metrics = %d/%d, want 1000/1000", snap.Writes, snap.RowsWritten)
	}
}

// TestConcurrentWritesAndQueries exercises the stats path under load:
// executions check the fragments' row counts for drift (and a drifted
// one re-plans through the planner's statistics) while DML appliers
// refresh them. Run under -race this guards the StatsSnapshot/SetStats
// locking.
func TestConcurrentWritesAndQueries(t *testing.T) {
	svc := maintainedService(t, Options{})
	ctx := context.Background()
	// The literal canonicalizes into a bind parameter, so every Execute
	// fills the one slot plan with a fresh value.
	st, err := svc.PrepareCQ(ctx, pivot.NewCQ(
		pivot.NewAtom("QV", v("p"), v("d")),
		pivot.NewAtom("Visits", pivot.CStr("u00001"), v("p"), v("d"))))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 150; i++ {
			r := value.TupleOf(fmt.Sprintf("u%05d", 1+i%40), fmt.Sprintf("pc%03d", i), int64(i))
			if _, err := svc.Insert(ctx, "Visits", r); err != nil {
				done <- err
				return
			}
			if _, err := svc.Delete(ctx, "Visits", r); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 300; i++ {
		// Every write moves the data epoch, so each Execute checks the
		// fragments' statistics for drift before it opens the plan.
		if _, err := st.Execute(ctx, value.Str(fmt.Sprintf("u%05d", 1+i%60))); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
