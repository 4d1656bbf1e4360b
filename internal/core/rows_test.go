package core

import (
	"context"
	"testing"

	"repro/internal/pivot"
	"repro/internal/value"
)

// The cursor path must return exactly the rows the materializing path
// does, and its report must be stamped at Close.
func TestQueryRowsMatchesQuery(t *testing.T) {
	s := testSystem(t)
	queries := []pivot.CQ{
		pivot.NewCQ(atom("Q", v("n")),
			atom("Users", v("u"), v("n"), pivot.CStr("paris"))),
		pivot.NewCQ(atom("Q", v("n"), v("val")),
			atom("Users", v("u"), v("n"), pivot.CStr("paris")),
			atom("Prefs", v("u"), pivot.CStr("theme"), v("val"))),
	}
	for i, q := range queries {
		want, err := s.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		r, err := s.QueryRows(context.Background(), q)
		if err != nil {
			t.Fatalf("queryRows %d: %v", i, err)
		}
		var got []value.Tuple
		for r.Next() {
			got = append(got, r.Tuple())
		}
		if r.Err() != nil {
			t.Fatalf("cursor %d: %v", i, r.Err())
		}
		if r.Report().ExecTime != 0 {
			t.Errorf("query %d: ExecTime stamped before Close", i)
		}
		r.Close()
		if len(got) != len(want.Rows) {
			t.Errorf("query %d: cursor saw %d rows, materialized %d", i, len(got), len(want.Rows))
		}
		gs, ws := rowSet(got), rowSet(want.Rows)
		for k := range ws {
			if !gs[k] {
				t.Errorf("query %d: cursor missing row %s", i, k)
			}
		}
		rep := r.Report()
		if rep.ExecTime <= 0 {
			t.Errorf("query %d: ExecTime not stamped at Close", i)
		}
		if len(rep.PerStore) == 0 || len(r.PerStore()) == 0 {
			t.Errorf("query %d: no per-store attribution on the cursor path", i)
		}
		if rep.Rewriting.Key() != want.Report.Rewriting.Key() {
			t.Errorf("query %d: cursor chose a different rewriting", i)
		}
	}
}

// Prepared.ExecRows must agree with Exec and keep the bound-plan cache
// behavior (second execution of the same binding hits the cache).
func TestPreparedExecRowsMatchesExec(t *testing.T) {
	s := testSystem(t)
	q := pivot.NewCQ(atom("Q", v("u"), v("k"), v("val")),
		atom("Prefs", v("u"), v("k"), v("val")))
	prep, err := s.Prepare(q, "u")
	if err != nil {
		t.Fatal(err)
	}
	for _, uid := range []string{"u1", "u2", "u1"} {
		want, err := prep.Exec(value.Str(uid))
		if err != nil {
			t.Fatal(err)
		}
		r, err := prep.ExecRows(context.Background(), nil, value.Str(uid))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("uid %s: cursor %d rows, materialized %d", uid, len(got), len(want))
		}
		if len(r.PerStore()) == 0 {
			t.Errorf("uid %s: no attribution", uid)
		}
		if r.Report() != nil {
			t.Error("ExecRows cursors carry no report")
		}
	}
}
