package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/langfuzz"
	"repro/internal/scenario"
	"repro/internal/value"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// frontOnly is a service with the text front end and nothing behind it:
// enough for textFingerprint, which never touches the system.
func frontOnly() *Service {
	return &Service{opts: Options{Schema: scenario.LogicalSchema}, cache: newPlanCache(1), shapes: newShapeCache()}
}

// checkAgainstParse sends text through the shape front end and through
// parseText + Canonicalize, and fails unless both give the same Key, Args
// and OutWidth, or the same error. It reports whether the front end hit.
func checkAgainstParse(t testing.TB, s *Service, language, text string) (hit bool) {
	t.Helper()
	before := s.metrics.shapeHits.Load()
	fp, args, _, _, err := s.textFingerprint(language, text)
	hit = s.metrics.shapeHits.Load() > before

	q, werr := s.parseText(language, text)
	var want Fingerprint
	if werr == nil {
		want, werr = Canonicalize(q)
	}
	switch {
	case err == nil && werr == nil:
	case err == nil || werr == nil || err.Error() != werr.Error() || errors.Is(err, ErrParse) != errors.Is(werr, ErrParse):
		t.Fatalf("%s %q (hit=%v): error %v, parsing gives %v", language, text, hit, err, werr)
	default:
		return hit
	}
	if fp.Key != want.Key || fp.OutWidth != want.OutWidth || !sameArgs(args, want.Args) {
		t.Fatalf("%s %q (hit=%v):\n got key %s args %v width %d\nwant key %s args %v width %d",
			language, text, hit, fp.Key, args, fp.OutWidth, want.Key, want.Args, want.OutWidth)
	}
	return hit
}

func sameArgs(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Literal spellings the fills draw from: equal and unequal values, quote
// styles, int, float and string kinds, equal floats spelled apart, -0.0,
// an int64 overflow and a malformed number.
var fillPool = []string{
	`'u00001'`, `"u00001"`, `'u00002'`, `'x'`,
	`1`, `2`, `007`, `7`, `-3`,
	`1.5`, `1.50`, `2.`, `0.0`, `-0.0`,
	`99999999999999999999`, `1.2.3`,
}

// fill replaces the "§i§" placeholders of a template with literals: one
// per placeholder, and now and then a different one per occurrence.
func fill(tmpl string, rng *rand.Rand) string {
	parts := strings.Split(tmpl, "§")
	chosen := map[string]string{}
	var b strings.Builder
	for i, p := range parts {
		if i%2 == 0 {
			b.WriteString(p)
			continue
		}
		lit, ok := chosen[p]
		if !ok || rng.Intn(4) == 0 {
			lit = fillPool[rng.Intn(len(fillPool))]
			if !ok {
				chosen[p] = lit
			}
		}
		b.WriteString(lit)
	}
	return b.String()
}

// Templates the generator does not produce: one column equated to two
// literals, self-joins (repeated predicates), head literals and
// multi-relation shapes with literals on both sides.
var shapeTemplates = []struct{ language, text string }{
	{"sql", `SELECT u.name FROM Users u WHERE u.uid = §0§ AND u.uid = §1§`},
	{"sql", `SELECT u.name FROM Users u, Users v WHERE u.uid = §0§ AND v.uid = §1§ AND u.uid = v.uid`},
	{"sql", `SELECT u.uid, u.name, o.pid FROM Users u, Orders o WHERE u.uid = §0§ AND o.uid = §1§`},
	{"sql", `SELECT u.name, o.pid FROM Users u, Orders o WHERE u.uid = o.uid AND u.city = §0§ AND o.amount = §1§`},
	{"flwor", `for u in Users where u.uid = §0§ and u.uid = §1§ return u.name`},
	{"flwor", `for u in Users, v in Users where u.city = §0§ and v.city = §1§ return u.name, v.name`},
	{"flwor", `for c in Carts, p in Products where c.pid = p.pid and c.uid = §0§ and p.category = §1§ return c.qty`},
	{"cq", `Q(§0§, n) :- Users(§1§, n, c)`},
	{"cq", `Q(§0§) :- Users(§0§, n, c)`},
	{"cq", `Q(n) :- Users(§0§, n, c), Users(§1§, m, c)`},
	{"cq", `Q(p, q) :- Carts(§0§, p, q), Orders(o, §1§, p, a)`},
	{"", `Q(v) :- Prefs(§0§, §1§, v)`},
}

// TestShapeMatchesParse is the differential property test of the shape
// cache: over generated queries on all three surfaces and the templates
// above, each filled many times, the front end either parses or yields
// exactly what parsing and canonicalizing yield — Key, Args, OutWidth, or
// the same error.
func TestShapeMatchesParse(t *testing.T) {
	s := frontOnly()
	rng := rand.New(rand.NewSource(33))
	gen := langfuzz.NewGenerator(33)
	var texts []struct{ language, text string }
	for i := 0; i < 150; i++ {
		tr := gen.Template()
		texts = append(texts,
			struct{ language, text string }{"sql", tr.SQL},
			struct{ language, text string }{"flwor", tr.FLWOR},
			struct{ language, text string }{"cq", tr.CQ})
	}
	for i := 0; i < 8; i++ {
		texts = append(texts, shapeTemplates...)
	}
	hits := 0
	for _, tt := range texts {
		for k := 0; k < 6; k++ {
			if checkAgainstParse(t, s, tt.language, fill(tt.text, rng)) {
				hits++
			}
		}
	}
	snap := s.Snapshot()
	t.Logf("%d texts: %d hits, %d misses, %d declines, %d shapes",
		6*len(texts), snap.ShapeHits, snap.ShapeMisses, snap.ShapeDeclines, snap.ShapeEntries)
	if hits < len(texts) || snap.ShapeMisses == 0 || snap.ShapeDeclines == 0 {
		t.Fatalf("the test exercised too little: %+v", snap)
	}
}

// FuzzShapeMatchesParse sends two texts through one front end, so the
// second can hit the shape the first taught it, and checks both against
// parsing (see checkAgainstParse). Seeds pair texts of one shape.
func FuzzShapeMatchesParse(f *testing.F) {
	f.Add(uint8(0), `SELECT p.val FROM Prefs p WHERE p.uid = 'u00001'`, `SELECT p.val FROM Prefs p WHERE p.uid = 'u00002'`)
	f.Add(uint8(0), `SELECT u.uid, o.pid FROM Users u, Orders o WHERE u.uid = 'a' AND o.uid = 'a'`,
		`SELECT u.uid, o.pid FROM Users u, Orders o WHERE u.uid = 'a' AND o.uid = 'b'`)
	f.Add(uint8(0), `SELECT c.pid FROM Carts c WHERE c.qty = 1`, `SELECT c.pid FROM Carts c WHERE c.qty = 99999999999999999999`)
	f.Add(uint8(1), `for c in Carts where c.uid = "u1" return c.pid, c.qty`, `for c in Carts where c.uid = "u2" return c.pid, c.qty`)
	f.Add(uint8(1), `for u in Users where u.uid = "1" and u.uid = "1" return u.name`, `for u in Users where u.uid = "1" and u.uid = "2" return u.name`)
	f.Add(uint8(2), `Q(q) :- Carts('u1', p, q)`, `Q(q) :- Carts('u2', p, q)`)
	f.Add(uint8(2), `Q('a', n) :- Users('a', n, c)`, `Q('b', n) :- Users('a', n, c)`)
	f.Add(uint8(2), `Q(x) :- Visits(x, 'p1', 1.5)`, `Q(x) :- Visits(x, 'p1', -0.0)`)
	f.Fuzz(func(t *testing.T, surface uint8, first, second string) {
		language := [...]string{"sql", "flwor", "cq"}[surface%3]
		s := frontOnly()
		checkAgainstParse(t, s, language, first)
		checkAgainstParse(t, s, language, second)
	})
}

// Equal literals share a parameter and unequal ones do not, so the two
// must be different entries: the second text misses and gets its own
// two-parameter fingerprint.
func TestShapeKeyHoldsEqualityPattern(t *testing.T) {
	s := frontOnly()
	const tmpl = `SELECT u.uid, o.pid FROM Users u, Orders o WHERE u.uid = '%s' AND o.uid = '%s'`
	if checkAgainstParse(t, s, "sql", fmt.Sprintf(tmpl, "u1", "u1")) {
		t.Fatal("first text hit an empty cache")
	}
	if !checkAgainstParse(t, s, "sql", fmt.Sprintf(tmpl, "u2", "u2")) {
		t.Fatal("same pattern, other value: want a hit")
	}
	if checkAgainstParse(t, s, "sql", fmt.Sprintf(tmpl, "u1", "u2")) {
		t.Fatal("unequal literals hit the equal-literal entry")
	}
	fp, args, _, _, err := s.textFingerprint("sql", fmt.Sprintf(tmpl, "u3", "u4"))
	if err != nil || len(fp.Params) != 2 || len(args) != 2 {
		t.Fatalf("unequal literals: %v params %v args %v", err, fp.Params, args)
	}
	if got := s.Snapshot(); got.ShapeHits != 2 || got.ShapeMisses != 2 || got.ShapeEntries != 2 {
		t.Errorf("counters = %+v, want 2 hits, 2 misses, 2 entries", got)
	}
}

// What Canonicalize's value-dependent steps could change is declined:
// repeated predicates, head-only literals, and texts that do not parse.
func TestShapeDeclines(t *testing.T) {
	s := frontOnly()
	for _, tc := range []struct{ language, text string }{
		{"sql", `SELECT u.name FROM Users u, Users v WHERE u.uid = 'a' AND v.uid = 'b'`},
		{"cq", `Q('head', n) :- Users('body', n, c)`},
		{"sql", `SELECT u.name FROM Users u WHERE u.uid = '1' AND u.uid = '2'`},
		{"sql", `SELECT c.pid FROM Carts c WHERE c.qty = 99999999999999999999`},
		{"sql", `SELECT x FROM`},
	} {
		for i := 0; i < 2; i++ {
			if checkAgainstParse(t, s, tc.language, tc.text) {
				t.Errorf("%q hit", tc.text)
			}
		}
	}
	if got := s.Snapshot(); got.ShapeDeclines != 10 || got.ShapeEntries != 0 {
		t.Errorf("counters = %+v, want 10 declines and no entry", got)
	}
}

// The cache holds at most shapeShards*maxShapesPerShard entries and always
// takes the newest.
func TestShapeCacheBounded(t *testing.T) {
	c := newShapeCache()
	e := &shapeEntry{}
	var last []byte
	for i := 0; i < 4*shapeShards*maxShapesPerShard; i++ {
		last = []byte(fmt.Sprintf("key-%d", i))
		c.put(last, e)
	}
	if n := c.len(); n > shapeShards*maxShapesPerShard {
		t.Errorf("%d entries, bound %d", n, shapeShards*maxShapesPerShard)
	}
	if c.get(last) != e {
		t.Error("the newest entry was not kept")
	}
}

// The hit path's front part — scan, lookup and Args build — allocates only
// the Args slice and one boxed value per string argument: 2 for a text
// with one string literal, 0 for a text with none.
func TestShapeHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments the lock and map accesses")
	}
	s := frontOnly()
	for _, tc := range []struct {
		text   string
		allocs float64
	}{
		{`SELECT p.key, p.val FROM Prefs p WHERE p.uid = 'u00042'`, 2},
		{`SELECT p.key, p.val FROM Prefs p`, 0},
	} {
		checkAgainstParse(t, s, "sql", tc.text) // learn
		got := testing.AllocsPerRun(200, func() {
			if _, _, _, _, err := s.textFingerprint("sql", tc.text); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.allocs {
			t.Errorf("%q: %v allocs per hit, want %v", tc.text, got, tc.allocs)
		}
	}
	if s.metrics.shapeHits.Load() == 0 {
		t.Fatal("no hit measured")
	}
}

// End to end: a text of a known shape is answered without parsing or
// canonicalizing, with the rows the parsed query gives, through the
// session and the service entry points alike.
func TestShapeHitAnswersLikeParse(t *testing.T) {
	m := testMarketplace(t)
	svc := New(m.Sys, Options{Schema: scenario.LogicalSchema})
	ctx := context.Background()
	sess := svc.NewSession()
	defer sess.Close()
	texts := map[string]string{
		"sql":   `SELECT u.uid, u.name, o.pid FROM Users u, Orders o WHERE u.uid = '%s' AND o.uid = '%s'`,
		"flwor": `for u in Users, o in Orders where u.uid = "%s" and o.uid = "%s" return u.uid, u.name, o.pid`,
		"cq":    `QProfile('%s', n, p) :- Users('%s', n, c), Orders(o, '%s', p, a)`,
	}
	for language, tmpl := range texts {
		for i, uid := range []string{"u00001", "u00002", "u00003"} {
			text := strings.ReplaceAll(tmpl, "%s", uid)
			r, err := sess.QueryTextRows(ctx, language, text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if hit := r.canonTime == 0; hit != (i > 0) {
				t.Errorf("%s: served from the shape cache = %v", text, hit)
			}
			got, err := r.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			q, err := svc.parseText(language, text)
			if err != nil {
				t.Fatal(err)
			}
			want, err := svc.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) == 0 || rowKeysTuples(got.Rows) != rowKeysTuples(want.Rows) {
				t.Errorf("%s: rows %s, want %s", text, rowKeysTuples(got.Rows), rowKeysTuples(want.Rows))
			}
		}
	}
	if got := svc.Snapshot(); got.ShapeHits != 6 || got.ShapeMisses != 3 {
		t.Errorf("counters = %+v, want 6 hits and 3 misses", got)
	}
	if st := sess.Stats(); st.Queries != 9 {
		t.Errorf("session counted %d queries, want 9", st.Queries)
	}
	// A parse error is the parser's, through either entry point.
	if _, err := svc.QueryTextRows(ctx, "sql", `SELECT u.name FROM Users u WHERE u.uid = '1' AND u.uid = '2'`); !errors.Is(err, ErrParse) || !errors.Is(err, lang.ErrConflictingConstants) {
		t.Errorf("conflicting literals: %v, want ErrParse wrapping lang.ErrConflictingConstants", err)
	}
}

// Concurrent text queries of one shape share the cached template while
// catalog-epoch bumps force re-prepares from it; every answer stays the
// parsed query's (run under -race in CI).
func TestShapeCacheConcurrent(t *testing.T) {
	m := testMarketplace(t)
	svc := New(m.Sys, Options{Schema: scenario.LogicalSchema})
	ctx := context.Background()
	const tmpl = `SELECT p.key, p.val FROM Prefs p WHERE p.uid = '%s'`
	uids := []string{"u00001", "u00002", "u00003", "u00004", "u00005"}
	want := map[string]string{}
	for _, uid := range uids {
		q, err := svc.parseText("sql", fmt.Sprintf(tmpl, uid))
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[uid] = rowKeysTuples(res.Rows)
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			sess := svc.NewSession()
			defer sess.Close()
			for i := 0; i < 40; i++ {
				uid := uids[(g+i)%len(uids)]
				res, err := sess.QueryText(ctx, "sql", fmt.Sprintf(tmpl, uid))
				if err != nil {
					errs <- err
					return
				}
				if got := rowKeysTuples(res.Rows); got != want[uid] {
					errs <- fmt.Errorf("%s: rows %s, want %s", uid, got, want[uid])
					return
				}
			}
			errs <- nil
		}(g)
	}
	for i := 0; i < 3; i++ {
		if err := m.Sys.RefreshAllStats(); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if svc.Snapshot().ShapeHits == 0 {
		t.Error("no request hit the shape cache")
	}
}
