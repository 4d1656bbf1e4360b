package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/stats"
	"repro/internal/value"
)

func atom(pred string, args ...pivot.Term) pivot.Atom { return pivot.NewAtom(pred, args...) }
func v(name string) pivot.Var                         { return pivot.Var(name) }

// view builds an identity view over one logical relation.
func identityView(name, over string, arity int) rewrite.View {
	args := make([]pivot.Term, arity)
	for i := range args {
		args[i] = v(string(rune('a' + i)))
	}
	return rewrite.NewView(name, pivot.NewCQ(
		pivot.NewAtom(name, args...),
		pivot.NewAtom(over, args...),
	))
}

// testSystem builds a small marketplace: Users in a relational store,
// Prefs in a KV store (keyed by uid), Carts in a document store, Products
// in a text store, Visits in a parallel store.
func testSystem(t *testing.T) *System {
	t.Helper()
	s := New(Options{})
	s.AddRelStore("pg")
	s.AddKVStore("redis")
	s.AddDocStore("mongo")
	s.AddTextStore("solr")
	s.AddParStore("spark", 4)

	frags := []*catalog.Fragment{
		{
			Name: "FUsers", Dataset: "mkt", View: identityView("FUsers", "Users", 3),
			Store:  "pg",
			Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "users", Columns: []string{"uid", "name", "city"}, IndexCols: []int{0}},
		},
		{
			Name: "FOrders", Dataset: "mkt", View: identityView("FOrders", "Orders", 3),
			Store:  "pg",
			Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "orders", Columns: []string{"oid", "uid", "pid"}, IndexCols: []int{1}},
		},
		{
			Name: "FPrefs", Dataset: "mkt", View: identityView("FPrefs", "Prefs", 3),
			Store:  "redis",
			Layout: catalog.Layout{Kind: catalog.LayoutKV, Collection: "prefs", KeyCol: 0},
			Access: "bff",
		},
		{
			Name: "FCarts", Dataset: "mkt", View: identityView("FCarts", "Carts", 3),
			Store:  "mongo",
			Layout: catalog.Layout{Kind: catalog.LayoutDoc, Collection: "carts", DocPaths: []string{"user", "sku", "qty"}, IndexCols: []int{0}},
		},
		{
			Name: "FProducts", Dataset: "mkt", View: identityView("FProducts", "Products", 3),
			Store:  "solr",
			Layout: catalog.Layout{Kind: catalog.LayoutText, Collection: "products", Columns: []string{"pid", "category", "descr"}, TextField: "descr"},
		},
		{
			Name: "FVisits", Dataset: "mkt", View: identityView("FVisits", "Visits", 3),
			Store:  "spark",
			Layout: catalog.Layout{Kind: catalog.LayoutPar, Collection: "visits", Columns: []string{"uid", "pid", "dur"}, PartitionCol: 0, IndexCols: []int{0}},
		},
	}
	for _, f := range frags {
		if err := s.RegisterFragment(f); err != nil {
			t.Fatal(err)
		}
	}
	load := func(name string, rows ...value.Tuple) {
		if err := s.Materialize(name, rows); err != nil {
			t.Fatalf("materialize %s: %v", name, err)
		}
	}
	load("FUsers",
		value.TupleOf("u1", "ada", "paris"),
		value.TupleOf("u2", "bob", "lyon"),
		value.TupleOf("u3", "cem", "paris"))
	load("FOrders",
		value.TupleOf("o1", "u1", "p1"),
		value.TupleOf("o2", "u1", "p2"),
		value.TupleOf("o3", "u2", "p1"))
	load("FPrefs",
		value.TupleOf("u1", "theme", "dark"),
		value.TupleOf("u1", "lang", "fr"),
		value.TupleOf("u2", "theme", "light"))
	load("FCarts",
		value.TupleOf("u1", "sku-a", value.Int(2)),
		value.TupleOf("u2", "sku-b", value.Int(1)))
	load("FProducts",
		value.TupleOf("p1", "audio", "wireless headphones"),
		value.TupleOf("p2", "video", "silent projector"))
	load("FVisits",
		value.TupleOf("u1", "p1", value.Int(30)),
		value.TupleOf("u1", "p2", value.Int(5)),
		value.TupleOf("u3", "p1", value.Int(9)))
	return s
}

func TestQuerySingleRelationalFragment(t *testing.T) {
	s := testSystem(t)
	q := pivot.NewCQ(atom("Q", v("n")),
		atom("Users", v("u"), v("n"), pivot.CStr("paris")))
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	names := rowSet(res.Rows)
	if len(res.Rows) != 2 || !names[`("ada")`] || !names[`("cem")`] {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Report.Rewriting.Body[0].Pred != "FUsers" {
		t.Errorf("rewriting = %v", res.Report.Rewriting)
	}
	if res.Report.PerStore["pg"].Requests == 0 {
		t.Error("pg did no work?")
	}
}

func rowSet(rows []value.Tuple) map[string]bool {
	out := map[string]bool{}
	for _, r := range rows {
		out[r.String()] = true
	}
	return out
}

func TestQueryCrossStoreJoinWithBindJoin(t *testing.T) {
	s := testSystem(t)
	// Names of paris users together with their theme preference: relational
	// fragment joined to the KV fragment through its key.
	q := pivot.NewCQ(atom("Q", v("n"), v("val")),
		atom("Users", v("u"), v("n"), pivot.CStr("paris")),
		atom("Prefs", v("u"), pivot.CStr("theme"), v("val")))
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !value.Equal(res.Rows[0][0], value.Str("ada")) || !value.Equal(res.Rows[0][1], value.Str("dark")) {
		t.Errorf("rows = %v", res.Rows)
	}
	if !strings.Contains(res.Report.PlanExplain, "BindJoin") {
		t.Errorf("plan must use BindJoin for the KV fragment:\n%s", res.Report.PlanExplain)
	}
	if res.Report.PerStore["redis"].Lookups == 0 {
		t.Error("redis saw no lookups")
	}
}

func TestQueryDelegatedJoinSameStore(t *testing.T) {
	s := testSystem(t)
	// Users ⋈ Orders both live in pg: the join must be delegated as one
	// request.
	q := pivot.NewCQ(atom("Q", v("n"), v("p")),
		atom("Users", v("u"), v("n"), v("c")),
		atom("Orders", v("o"), v("u"), v("p")))
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
	if !strings.Contains(res.Report.PlanExplain, "delegate(2 atoms)") {
		t.Errorf("join not delegated:\n%s", res.Report.PlanExplain)
	}
	if got := res.Report.PerStore["pg"].Requests; got != 1 {
		t.Errorf("pg requests = %d, want 1 (single delegated round-trip)", got)
	}
}

func TestQueryDocumentFragment(t *testing.T) {
	s := testSystem(t)
	q := pivot.NewCQ(atom("Q", v("sku"), v("qty")),
		atom("Carts", pivot.CStr("u1"), v("sku"), v("qty")))
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !value.Equal(res.Rows[0][0], value.Str("sku-a")) {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Report.PerStore["mongo"].Requests == 0 {
		t.Error("mongo saw no requests")
	}
}

func TestQueryTextFragment(t *testing.T) {
	s := testSystem(t)
	q := pivot.NewCQ(atom("Q", v("p")),
		atom("Products", v("p"), pivot.CStr("audio"), v("d")))
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !value.Equal(res.Rows[0][0], value.Str("p1")) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestQueryParallelFragment(t *testing.T) {
	s := testSystem(t)
	q := pivot.NewCQ(atom("Q", v("p"), v("d")),
		atom("Visits", pivot.CStr("u1"), v("p"), v("d")))
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestQueryThreeStoreJoin(t *testing.T) {
	s := testSystem(t)
	// Which paris users bought a product they also visited, with duration.
	q := pivot.NewCQ(atom("Q", v("n"), v("p"), v("d")),
		atom("Users", v("u"), v("n"), pivot.CStr("paris")),
		atom("Orders", v("o"), v("u"), v("p")),
		atom("Visits", v("u"), v("p"), v("d")))
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// u1 (ada) bought p1,p2 and visited both.
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestQueryNoPlan(t *testing.T) {
	s := testSystem(t)
	q := pivot.NewCQ(atom("Q", v("x")), atom("Unknown", v("x")))
	_, err := s.Query(q)
	if !errors.Is(err, ErrNoPlan) {
		t.Errorf("err = %v, want ErrNoPlan", err)
	}
	// A scan over the KV fragment is infeasible: Prefs without the key.
	q2 := pivot.NewCQ(atom("Q", v("u"), v("k"), v("val")),
		atom("Prefs", v("u"), v("k"), v("val")))
	_, err = s.Query(q2)
	if !errors.Is(err, ErrNoPlan) {
		t.Errorf("KV scan err = %v, want ErrNoPlan", err)
	}
}

func TestPreparedKVLookup(t *testing.T) {
	s := testSystem(t)
	// Parameterized preference lookup: infeasible as a plain query (key
	// unbound), feasible as a prepared query with the key as parameter.
	q := pivot.NewCQ(atom("Q", v("u"), v("k"), v("val")),
		atom("Prefs", v("u"), v("k"), v("val")))
	p, err := s.Prepare(q, "u")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rewriting().Body[0].Pred != "FPrefs" {
		t.Errorf("rewriting = %v", p.Rewriting())
	}
	rows, err := p.Exec(value.Str("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("u1 prefs = %v", rows)
	}
	rows, err = p.Exec(value.Str("u2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !value.Equal(rows[0][2], value.Str("light")) {
		t.Errorf("u2 prefs = %v", rows)
	}
	// Unknown key: empty result, no error.
	rows, err = p.Exec(value.Str("ghost"))
	if err != nil || len(rows) != 0 {
		t.Errorf("ghost = %v, %v", rows, err)
	}
	// Wrong arg count.
	if _, err := p.Exec(); err == nil {
		t.Error("missing parameter accepted")
	}
}

func TestPrepareParamMustBeHeadVar(t *testing.T) {
	s := testSystem(t)
	q := pivot.NewCQ(atom("Q", v("val")),
		atom("Prefs", v("u"), pivot.CStr("theme"), v("val")))
	if _, err := s.Prepare(q, "u"); err == nil {
		t.Error("non-head parameter accepted")
	}
}

func TestMaterializeArityCheck(t *testing.T) {
	s := testSystem(t)
	if err := s.Materialize("FUsers", []value.Tuple{value.TupleOf("only-one")}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := s.Materialize("Ghost", nil); err == nil {
		t.Error("materialize of unknown fragment accepted")
	}
}

func TestDropFragmentRemovesPlanAndData(t *testing.T) {
	s := testSystem(t)
	q := pivot.NewCQ(atom("Q", v("n")),
		atom("Users", v("u"), v("n"), pivot.CStr("paris")))
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := s.DropFragment("FUsers"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(q); !errors.Is(err, ErrNoPlan) {
		t.Errorf("after drop err = %v, want ErrNoPlan", err)
	}
	if err := s.DropFragment("FUsers"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestRegisterFragmentUnknownStore(t *testing.T) {
	s := New(Options{})
	f := &catalog.Fragment{
		Name: "F", Dataset: "d", View: identityView("F", "R", 1),
		Store:  "nowhere",
		Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "r", Columns: []string{"a"}},
	}
	if err := s.RegisterFragment(f); err == nil {
		t.Error("unknown store accepted")
	}
}

func TestQueryWithConstraints(t *testing.T) {
	// Register Child⊆Desc; store a Desc fragment; ask a Desc query.
	s := New(Options{})
	s.AddRelStore("pg")
	s.AddConstraints(pivot.Constraints{TGDs: []pivot.TGD{
		pivot.InclusionTGD("c⊆d", "Child", 2, []int{0, 1}, "Desc", 2, []int{0, 1}),
	}})
	f := &catalog.Fragment{
		Name: "FDesc", Dataset: "tree", View: identityView("FDesc", "Desc", 2),
		Store:  "pg",
		Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "descs", Columns: []string{"a", "d"}},
	}
	if err := s.RegisterFragment(f); err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize("FDesc", []value.Tuple{value.TupleOf(1, 2)}); err != nil {
		t.Fatal(err)
	}
	q := pivot.NewCQ(atom("Q", v("a"), v("d")), atom("Desc", v("a"), v("d")))
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
	// A Child query must NOT be answerable from the Desc fragment.
	qc := pivot.NewCQ(atom("Q", v("a"), v("d")), atom("Child", v("a"), v("d")))
	if _, err := s.Query(qc); !errors.Is(err, ErrNoPlan) {
		t.Errorf("child query err = %v, want ErrNoPlan", err)
	}
}

func TestQueryAnswersMatchAcrossEquivalentLayouts(t *testing.T) {
	// The same logical data behind a relational fragment and a doc fragment
	// must yield identical answers.
	s := New(Options{})
	s.AddRelStore("pg")
	s.AddDocStore("mongo")
	rel := &catalog.Fragment{
		Name: "FRel", Dataset: "d", View: identityView("FRel", "R", 2),
		Store:  "pg",
		Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "r", Columns: []string{"a", "b"}},
	}
	if err := s.RegisterFragment(rel); err != nil {
		t.Fatal(err)
	}
	rows := []value.Tuple{value.TupleOf(1, "x"), value.TupleOf(2, "y")}
	if err := s.Materialize("FRel", rows); err != nil {
		t.Fatal(err)
	}
	q := pivot.NewCQ(atom("Q", v("a"), v("b")), atom("R", v("a"), v("b")))
	res1, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{})
	s2.AddDocStore("mongo")
	doc := &catalog.Fragment{
		Name: "FDoc", Dataset: "d", View: identityView("FDoc", "R", 2),
		Store:  "mongo",
		Layout: catalog.Layout{Kind: catalog.LayoutDoc, Collection: "r", DocPaths: []string{"a", "b"}},
	}
	if err := s2.RegisterFragment(doc); err != nil {
		t.Fatal(err)
	}
	if err := s2.Materialize("FDoc", rows); err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rows) != len(res2.Rows) {
		t.Fatalf("row counts differ: %v vs %v", res1.Rows, res2.Rows)
	}
	set1, set2 := rowSet(res1.Rows), rowSet(res2.Rows)
	for k := range set1 {
		if !set2[k] {
			t.Errorf("doc layout missing row %s", k)
		}
	}
}

func TestRefreshStats(t *testing.T) {
	s := testSystem(t)
	// Stats were collected at Materialize time; blow them away and refresh.
	if err := s.Catalog.SetStats("FUsers", stats.FragmentStats{}); err != nil {
		t.Fatal(err)
	}
	if err := s.RefreshStats("FUsers"); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Catalog.StatsFor("FUsers")
	if st.Rows != 3 {
		t.Errorf("refreshed rows = %d, want 3", st.Rows)
	}
	if st.DistinctAt(2) != 2 { // two distinct cities
		t.Errorf("distinct cities = %d, want 2", st.DistinctAt(2))
	}
	if err := s.RefreshStats("Ghost"); err == nil {
		t.Error("refresh of unknown fragment accepted")
	}
}

func TestRefreshAllStatsCoversEveryLayout(t *testing.T) {
	s := testSystem(t)
	for _, f := range s.Catalog.All() {
		if err := s.Catalog.SetStats(f.Name, stats.FragmentStats{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RefreshAllStats(); err != nil {
		t.Fatal(err)
	}
	for _, f := range s.Catalog.All() {
		st, _ := s.Catalog.StatsFor(f.Name)
		if st.Rows == 0 {
			t.Errorf("fragment %s: stats not refreshed (layout %v)", f.Name, f.Layout.Kind)
		}
	}
}

// Reloading a fragment with rows that overlap the stored ones must leave
// exactly the target rows in every layout, as a data-only change.
func TestReloadFragmentEveryLayout(t *testing.T) {
	cases := []struct {
		frag string
		rows []value.Tuple
	}{
		{"FUsers", []value.Tuple{value.TupleOf("u1", "ada", "paris"), value.TupleOf("u4", "dan", "nice")}},
		{"FPrefs", []value.Tuple{value.TupleOf("u1", "theme", "dark"), value.TupleOf("u3", "lang", "en")}},
		{"FCarts", []value.Tuple{value.TupleOf("u2", "sku-b", value.Int(1)), value.TupleOf("u3", "sku-c", value.Int(4))}},
		{"FProducts", []value.Tuple{value.TupleOf("p2", "video", "silent projector"), value.TupleOf("p3", "audio", "loud speaker")}},
		{"FVisits", []value.Tuple{value.TupleOf("u1", "p1", value.Int(30)), value.TupleOf("u2", "p2", value.Int(7))}},
	}
	for _, c := range cases {
		t.Run(c.frag, func(t *testing.T) {
			s := testSystem(t)
			epoch, data := s.CacheEpoch(), s.DataEpoch()
			if err := s.ReloadFragment(c.frag, c.rows); err != nil {
				t.Fatal(err)
			}
			got, err := s.FragmentRows(c.frag)
			if err != nil {
				t.Fatal(err)
			}
			gs, ws := rowSet(got), rowSet(c.rows)
			if len(got) != len(c.rows) || len(gs) != len(ws) {
				t.Fatalf("stored %v, want %v", got, c.rows)
			}
			for k := range ws {
				if !gs[k] {
					t.Errorf("missing %s after reload; stored %v", k, got)
				}
			}
			if s.DataEpoch() == data {
				t.Error("reload did not advance the data epoch")
			}
			if s.CacheEpoch() != epoch {
				t.Error("reload moved the catalog epoch")
			}
		})
	}
}

func TestConcurrentQueries(t *testing.T) {
	s := testSystem(t)
	queries := []pivot.CQ{
		pivot.NewCQ(atom("Q", v("n")),
			atom("Users", v("u"), v("n"), pivot.CStr("paris"))),
		pivot.NewCQ(atom("Q", v("n"), v("p")),
			atom("Users", v("u"), v("n"), v("c")),
			atom("Orders", v("o"), v("u"), v("p"))),
		pivot.NewCQ(atom("Q", v("sku"), v("qty")),
			atom("Carts", pivot.CStr("u1"), v("sku"), v("qty"))),
		pivot.NewCQ(atom("Q", v("p"), v("d")),
			atom("Visits", pivot.CStr("u1"), v("p"), v("d"))),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := s.Query(queries[(g+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConcurrentPreparedExec(t *testing.T) {
	s := testSystem(t)
	q := pivot.NewCQ(atom("Q", v("u"), v("k"), v("val")),
		atom("Prefs", v("u"), v("k"), v("val")))
	p, err := s.Prepare(q, "u")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"u1", "u2", "u3", "ghost"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := p.Exec(value.Str(keys[(g+i)%len(keys)])); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
