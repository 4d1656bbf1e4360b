package catalog

import (
	"strings"
	"testing"

	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/stats"
)

func prefsView() rewrite.View {
	return rewrite.NewView("FPrefs", pivot.NewCQ(
		pivot.NewAtom("FPrefs", pivot.Var("u"), pivot.Var("k"), pivot.Var("v")),
		pivot.NewAtom("Prefs", pivot.Var("u"), pivot.Var("k"), pivot.Var("v")),
	))
}

func kvFragment() *Fragment {
	return &Fragment{
		Name:    "FPrefs",
		Dataset: "marketplace",
		View:    prefsView(),
		Store:   "kv-main",
		Layout:  Layout{Kind: LayoutKV, Collection: "prefs", KeyCol: 0},
		Access:  "bff",
		Stats:   stats.FragmentStats{Rows: 100},
	}
}

func TestRegisterAndGet(t *testing.T) {
	c := New()
	if err := c.Register(kvFragment()); err != nil {
		t.Fatal(err)
	}
	f, ok := c.Get("FPrefs")
	if !ok || f.Store != "kv-main" {
		t.Errorf("Get = %v, %v", f, ok)
	}
	if err := c.Register(kvFragment()); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []func(*Fragment){
		func(f *Fragment) { f.Name = "" },
		func(f *Fragment) { f.Name = "Other" },
		func(f *Fragment) { f.Store = "" },
		func(f *Fragment) { f.Layout.Collection = "" },
		func(f *Fragment) { f.Layout.KeyCol = 9 },
		func(f *Fragment) { f.Access = "bf" },  // wrong length
		func(f *Fragment) { f.Access = "bxf" }, // bad letter
		func(f *Fragment) { f.Layout.IndexCols = []int{7} },
	}
	for i, mut := range cases {
		f := kvFragment()
		mut(f)
		if err := New().Register(f); err == nil {
			t.Errorf("case %d: invalid fragment accepted", i)
		}
	}
}

func TestLayoutValidatePerKind(t *testing.T) {
	if err := (Layout{Kind: LayoutRel, Collection: "t", Columns: []string{"a"}}).Validate(2); err == nil {
		t.Error("column count mismatch accepted")
	}
	if err := (Layout{Kind: LayoutDoc, Collection: "c", DocPaths: []string{"a", "b"}}).Validate(2); err != nil {
		t.Error(err)
	}
	if err := (Layout{Kind: LayoutDoc, Collection: "c", DocPaths: []string{"a"}}).Validate(2); err == nil {
		t.Error("doc path count mismatch accepted")
	}
	if err := (Layout{Kind: LayoutDoc, Collection: "c", DocPaths: []string{"a", ""}}).Validate(2); err == nil {
		t.Error("empty doc path accepted")
	}
	// A partition column past the arity used to register and then panic
	// when the container was created.
	for _, pc := range []int{-1, 2, 7} {
		l := Layout{Kind: LayoutPar, Collection: "t", Columns: []string{"a", "b"}, PartitionCol: pc}
		if err := l.Validate(2); err == nil {
			t.Errorf("partition column %d accepted for arity 2", pc)
		}
	}
	if err := (Layout{Kind: LayoutPar, Collection: "t", Columns: []string{"a", "b"}, PartitionCol: 1}).Validate(2); err != nil {
		t.Error(err)
	}
	if err := (Layout{Kind: LayoutKind(42), Collection: "t"}).Validate(1); err == nil {
		t.Error("unknown layout kind accepted")
	}
}

func TestDropAndAll(t *testing.T) {
	c := New()
	if err := c.Register(kvFragment()); err != nil {
		t.Fatal(err)
	}
	if got := len(c.All()); got != 1 {
		t.Errorf("All = %d", got)
	}
	if err := c.Drop("FPrefs"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("FPrefs"); err == nil {
		t.Error("double drop accepted")
	}
	if got := len(c.All()); got != 0 {
		t.Errorf("All after drop = %d", got)
	}
}

func TestViewsAndPatterns(t *testing.T) {
	c := New()
	if err := c.Register(kvFragment()); err != nil {
		t.Fatal(err)
	}
	relFrag := &Fragment{
		Name:    "FUsers",
		Dataset: "other",
		View: rewrite.NewView("FUsers", pivot.NewCQ(
			pivot.NewAtom("FUsers", pivot.Var("u"), pivot.Var("n")),
			pivot.NewAtom("Users", pivot.Var("u"), pivot.Var("n")),
		)),
		Store:  "pg-main",
		Layout: Layout{Kind: LayoutRel, Collection: "users", Columns: []string{"uid", "name"}},
	}
	if err := c.Register(relFrag); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Views("")); got != 2 {
		t.Errorf("Views(all) = %d", got)
	}
	if got := len(c.Views("marketplace")); got != 1 {
		t.Errorf("Views(marketplace) = %d", got)
	}
	pats := c.AccessPatterns()
	if len(pats) != 1 || pats["FPrefs"] != "bff" {
		t.Errorf("patterns = %v", pats)
	}
}

func TestStatsProvider(t *testing.T) {
	c := New()
	if err := c.Register(kvFragment()); err != nil {
		t.Fatal(err)
	}
	var p stats.Provider = c
	st, ok := p.StatsFor("FPrefs")
	if !ok || st.Rows != 100 {
		t.Errorf("StatsFor = %+v, %v", st, ok)
	}
	if _, ok := p.StatsFor("Ghost"); ok {
		t.Error("ghost fragment has stats")
	}
	if err := c.SetStats("FPrefs", stats.FragmentStats{Rows: 5}); err != nil {
		t.Fatal(err)
	}
	st, _ = p.StatsFor("FPrefs")
	if st.Rows != 5 {
		t.Error("SetStats not applied")
	}
	if err := c.SetStats("Ghost", stats.FragmentStats{}); err == nil {
		t.Error("SetStats on ghost accepted")
	}
}

func TestDescribe(t *testing.T) {
	d := kvFragment().Describe()
	for _, want := range []string{"sd(kv-main, marketplace/FPrefs)", "what:", "keyvalue", "keyed by column 0", "access pattern bff", "100 rows"} {
		if !strings.Contains(d, want) {
			t.Errorf("descriptor missing %q:\n%s", want, d)
		}
	}
}

func TestLayoutKindString(t *testing.T) {
	kinds := map[LayoutKind]string{
		LayoutRel: "relational", LayoutKV: "keyvalue", LayoutDoc: "document",
		LayoutText: "fulltext", LayoutPar: "parallel",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestDescribeCredentials(t *testing.T) {
	f := kvFragment()
	f.Credentials = "vault:redis-main"
	if !strings.Contains(f.Describe(), "creds:  vault:redis-main") {
		t.Errorf("descriptor missing credentials:\n%s", f.Describe())
	}
	// Absent credentials stay out of the descriptor.
	if strings.Contains(kvFragment().Describe(), "creds:") {
		t.Error("empty credentials rendered")
	}
}
