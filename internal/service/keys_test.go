package service

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/value"
)

// String constants that spell a key separator plus the next constant's
// key must not make two queries share a cache entry or one execution's
// slot values: each query in a pair gets its own answer.
func TestStringConstantsDoNotCollide(t *testing.T) {
	sys := core.New(core.Options{})
	sys.AddRelStore("rel")
	vars := []pivot.Term{v("x"), v("y"), v("z")}
	if err := sys.RegisterFragment(&catalog.Fragment{
		Name: "FR", Dataset: "d", Store: "rel",
		View: rewrite.NewView("FR", pivot.NewCQ(pivot.NewAtom("FR", vars...), pivot.NewAtom("R", vars...))),
		Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "r",
			Columns: []string{"x", "y", "z"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Materialize("FR", []value.Tuple{
		value.TupleOf("x|#sy", "z", "first"),
		value.TupleOf("x", "y|#sz", "second"),
	}); err != nil {
		t.Fatal(err)
	}
	headOnly := func(a, b string) pivot.CQ {
		return pivot.NewCQ(pivot.NewAtom("Q", pivot.CStr(a), pivot.CStr(b), v("z")),
			pivot.NewAtom("R", v("x"), v("y"), v("z")))
	}
	bodyOnly := func(a, b string) pivot.CQ {
		return pivot.NewCQ(pivot.NewAtom("Q", v("z")),
			pivot.NewAtom("R", pivot.CStr(a), pivot.CStr(b), v("z")))
	}
	cases := []struct {
		name string
		q    [2]pivot.CQ
		want [2][]value.Tuple
	}{
		{"head constants",
			[2]pivot.CQ{headOnly("a,#sb", "c"), headOnly("a", "b,#sc")},
			[2][]value.Tuple{
				{value.TupleOf("a,#sb", "c", "first"), value.TupleOf("a,#sb", "c", "second")},
				{value.TupleOf("a", "b,#sc", "first"), value.TupleOf("a", "b,#sc", "second")},
			}},
		{"slot values",
			[2]pivot.CQ{bodyOnly("x|#sy", "z"), bodyOnly("x", "y|#sz")},
			[2][]value.Tuple{{value.TupleOf("first")}, {value.TupleOf("second")}}},
	}
	for _, c := range cases {
		svc := New(sys, Options{})
		for i, q := range c.q {
			res, err := svc.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s, query %d: %v", c.name, i, err)
			}
			if got, want := rowKeys(res), rowKeysTuples(c.want[i]); got != want {
				t.Errorf("%s, query %d: rows %s, want %s", c.name, i, got, want)
			}
		}
	}
}
