package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engines/engine"
	"repro/internal/pivot"
	"repro/internal/value"
)

// A parameter stands where a constant could: an argument that is no
// string, integer, float or boolean is refused before any store is
// touched, never rendered into a string that matches a stored one.
func TestPreparedRefusesNonScalarArgument(t *testing.T) {
	s := testSystem(t)
	if err := s.Materialize("FUsers", []value.Tuple{value.TupleOf("∅", "zed", "oslo")}); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(pivot.NewCQ(atom("Q", v("u"), v("n")),
		atom("Users", v("u"), v("n"), v("c"))), "u")
	if err != nil {
		t.Fatal(err)
	}
	for _, arg := range []value.Value{value.Null{}, value.TupleOf("u1"), value.List{value.Str("u1")}} {
		attr := engine.NewExecCounters()
		r, err := p.ExecRows(context.Background(), attr, arg)
		if !errors.Is(err, ErrBadArgument) {
			if err == nil {
				rows, _ := r.All()
				t.Fatalf("argument %v: answered %v, want ErrBadArgument", arg, rows)
			}
			t.Fatalf("argument %v: %v, want ErrBadArgument", arg, err)
		}
		if got := attr.Snapshot(); len(got) != 0 {
			t.Errorf("argument %v: stores touched before the refusal: %v", arg, got)
		}
	}
}

// feedQuery reaches all five layouts of the test fixture through one
// parameter, the city: a delegated Users ⋈ Orders group on the relational
// store carries it, the KV Prefs fragment is a bind-join fetch with a
// constant filter, and it is a head column.
func feedQuery() pivot.CQ {
	return pivot.NewCQ(atom("Q", v("c"), v("n"), v("o"), v("p"), v("val"), v("sku"), v("cat"), v("vu"), v("dur")),
		atom("Users", v("u"), v("n"), v("c")),
		atom("Orders", v("o"), v("u"), v("p")),
		atom("Prefs", v("u"), pivot.CStr("theme"), v("val")),
		atom("Carts", v("u"), v("sku"), v("qty")),
		atom("Products", v("p"), v("cat"), v("d")),
		atom("Visits", v("vu"), v("p"), v("dur")))
}

func rowKeys(rows []value.Tuple) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// One slot plan serves concurrent executions with different arguments:
// every answer equals System.Query of the query with the argument written
// in as a literal.
func TestSlotPlanConcurrentArguments(t *testing.T) {
	s := testSystem(t)
	p, err := s.Prepare(feedQuery(), "c")
	if err != nil {
		t.Fatal(err)
	}
	explain := p.state.Load().plan.Explain()
	for _, want := range []string{"pg.delegate(2 atoms)", "redis.fetch(FPrefs)", "mongo.", "solr.", "spark.", "BatchExtendConsts"} {
		if !strings.Contains(explain, want) {
			t.Fatalf("plan lacks %q:\n%s", want, explain)
		}
	}
	cities := []string{"paris", "lyon", "rome"}
	want := map[string]string{}
	for _, c := range cities {
		lit := feedQuery().Apply(pivot.Subst{v("c"): pivot.CStr(c)})
		res, err := s.Query(lit)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = rowKeys(res.Rows)
	}
	if want["paris"] == "" || want["lyon"] == "" {
		t.Fatal("fixture broken: paris and lyon must have answers")
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				c := cities[(g+i)%len(cities)]
				rows, err := p.Exec(value.Str(c))
				if err != nil {
					t.Error(err)
					return
				}
				if got := rowKeys(rows); got != want[c] {
					t.Errorf("%s: got\n%s\nwant\n%s", c, got, want[c])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// An execution with a key never seen before costs exactly what a repeated
// one does: the plan is built once, at Prepare, not per key.
func TestPreparedFreshKeyAllocatesAsRepeated(t *testing.T) {
	s := New(Options{})
	s.AddRelStore("pg")
	if err := s.RegisterFragment(&catalog.Fragment{
		Name: "FUsers", Dataset: "d", View: identityView("FUsers", "Users", 3), Store: "pg",
		Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "users",
			Columns: []string{"uid", "name", "city"}, IndexCols: []int{0}},
	}); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	keys := make([]value.Value, runs+2)
	rows := make([]value.Tuple, len(keys))
	for i := range keys {
		keys[i] = value.Str(fmt.Sprintf("k%03d", i))
		rows[i] = value.TupleOf(fmt.Sprintf("k%03d", i), "name", "city")
	}
	if err := s.Materialize("FUsers", rows); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(pivot.NewCQ(atom("Q", v("u"), v("n")),
		atom("Users", v("u"), v("n"), v("c"))), "u")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	exec := func(key value.Value) {
		r, err := p.ExecRows(ctx, nil, key)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for r.Next() {
			n++
		}
		if err := r.Close(); err != nil || n != 1 {
			t.Fatalf("key %v: %d rows, err %v", key, n, err)
		}
	}
	exec(keys[0])
	repeated := testing.AllocsPerRun(runs, func() { exec(keys[0]) })
	next := 1
	fresh := testing.AllocsPerRun(runs, func() { exec(keys[next]); next++ })
	if fresh != repeated {
		t.Errorf("allocs per execution: fresh key %.0f, repeated key %.0f", fresh, repeated)
	}
}
