package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/lang"
	"repro/internal/pivot"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/value"
)

// Traffic constants shared by the workloads.
const (
	hotUsers   = 2000 // hot set of point_hot and point_rw: fits every cache
	zipfS      = 1.3  // skew of the hot-set and member-key draws
	coldShapes = 256  // distinct join shapes of cold_shapes
)

var surfaces = [...]string{"sql", "flwor", "cq"}

// shape is a query template: q with the variables in params standing for
// the values each request supplies.
type shape struct {
	name   string
	q      pivot.CQ
	params []pivot.Var
	// prepared shapes are sent as server-side prepared statements; the
	// others ad hoc, as text when text is set and as a query value if not.
	prepared, text bool
}

// bind substitutes the parameter values into the template.
func (s shape) bind(vals ...string) pivot.CQ {
	sub := pivot.NewSubst()
	for i, p := range s.params {
		sub[p] = pivot.CStr(vals[i])
	}
	return s.q.Apply(sub)
}

// render writes the bound shape in one of the three surface languages.
func (s shape) render(surface string, schema lang.Schema, vals ...string) string {
	if surface == "cq" {
		return renderCQ(s.bind(vals...))
	}
	quote, from, where, and := `'`, " FROM ", " WHERE ", " AND "
	if surface == "flwor" {
		quote, from, where, and = `"`, "for ", " where ", " and "
	}
	paramVal := map[pivot.Var]string{}
	for i, p := range s.params {
		paramVal[p] = vals[i]
	}
	first := map[pivot.Var]string{} // variable → alias.column of its first use
	var sources, preds []string
	for i, a := range s.q.Body {
		alias := fmt.Sprintf("a%d", i)
		if surface == "flwor" {
			sources = append(sources, alias+" in "+a.Pred)
		} else {
			sources = append(sources, a.Pred+" "+alias)
		}
		for col, t := range a.Args {
			v := t.(pivot.Var)
			ref := alias + "." + schema[a.Pred][col]
			if val, ok := paramVal[v]; ok {
				preds = append(preds, ref+" = "+quote+val+quote)
			} else if f, ok := first[v]; ok {
				preds = append(preds, ref+" = "+f)
			}
			if _, ok := first[v]; !ok {
				first[v] = ref
			}
		}
	}
	cols := make([]string, len(s.q.Head.Args))
	for i, t := range s.q.Head.Args {
		cols[i] = first[t.(pivot.Var)]
	}
	cond := ""
	if len(preds) > 0 {
		cond = where + strings.Join(preds, and)
	}
	if surface == "flwor" {
		return from + strings.Join(sources, ", ") + cond + " return " + strings.Join(cols, ", ")
	}
	return "SELECT " + strings.Join(cols, ", ") + from + strings.Join(sources, ", ") + cond
}

func renderCQ(q pivot.CQ) string {
	atom := func(a pivot.Atom) string {
		ts := make([]string, len(a.Args))
		for i, t := range a.Args {
			if c, ok := t.(pivot.Const); ok {
				ts[i] = "'" + c.V.(string) + "'"
			} else {
				ts[i] = t.String()
			}
		}
		return a.Pred + "(" + strings.Join(ts, ", ") + ")"
	}
	body := make([]string, len(q.Body))
	for i, a := range q.Body {
		body[i] = atom(a)
	}
	return atom(q.Head) + " :- " + strings.Join(body, ", ")
}

// query is one fully built request: what a client sends, and the bound
// query the oracle and the layer-by-layer replay work from.
type query struct {
	shape int
	vals  []string // the shape's parameter values
	cq    pivot.CQ
	// One of: stmt+args (prepared statement), lang+text (ad-hoc text), or
	// neither (cq sent as a value).
	stmt *service.Stmt
	args []value.Value
	lang string
	text string
}

// describe is the request as bytes, for the op-stream hash.
func (q *query) describe() string {
	return fmt.Sprintf("%d|%s|%s|%s", q.shape, q.lang, q.text, q.cq)
}

// workloadDef is one traffic mix.
type workloadDef struct {
	name, why string
	deploy    func() (*deployment, error)
	shapes    []shape
	// gen fills the plan's request table and per-reader streams.
	gen func(g *generator)
	// writerMix, when set, runs one writer beside the readers; its batches
	// go to these relations in turn (a fixed rotation, so that every run
	// applies the same mix whatever its length). Otherwise writes are
	// probed alone after the window.
	writerMix []string
	// cold workloads bump the catalog epoch each time a reader's stream
	// wraps, and are valid only if (almost) every request missed the
	// rewriting cache.
	cold bool
	// traceSample is how many requests the traced run replays.
	traceSample int
}

// plan is everything one run sends, generated from the seed before any
// timing starts.
type plan struct {
	queries []query
	streams [][]int32 // one per reader
	writes  [][]service.WriteOp
}

// generator builds a plan's requests, deduplicating identical ones.
type generator struct {
	d     *deployment
	w     *workloadDef
	rng   *rand.Rand
	plan  *plan // streams is sized to the number of readers
	byKey map[string]int32
}

// add returns the index of the request (shape, surface, vals), building it
// on first use. surface is ignored unless the shape is sent as text.
func (g *generator) add(shapeIdx int, surface string, vals ...string) int32 {
	sh := g.w.shapes[shapeIdx]
	if !sh.text {
		surface = ""
	}
	key := fmt.Sprintf("%d|%s|%s", shapeIdx, surface, strings.Join(vals, "|"))
	if i, ok := g.byKey[key]; ok {
		return i
	}
	q := query{shape: shapeIdx, vals: vals, cq: sh.bind(vals...)}
	switch {
	case sh.prepared:
		ps := g.d.stmts[shapeIdx]
		q.stmt, q.args = ps.stmt, ps.args(vals...)
	case sh.text:
		q.lang, q.text = surface, sh.render(surface, g.d.schema, vals...)
	}
	g.plan.queries = append(g.plan.queries, q)
	i := int32(len(g.plan.queries) - 1)
	g.byKey[key] = i
	return i
}

// pick draws an index from cumulative percentages, e.g. {40, 80, 100}.
func (g *generator) pick(cum ...int) int {
	r := g.rng.Intn(cum[len(cum)-1])
	for i, c := range cum {
		if r < c {
			return i
		}
	}
	return len(cum) - 1
}

// fill gives every reader a stream of n requests drawn by next.
func (g *generator) fill(n int, next func(reader, pos int) int32) {
	for r := range g.plan.streams {
		s := make([]int32, n)
		for i := range s {
			s[i] = next(r, i)
		}
		g.plan.streams[r] = s
	}
}

// distinctColumn lists the distinct string values of one column, sorted.
func distinctColumn(rows []value.Tuple, col int) []string {
	seen := map[string]bool{}
	for _, r := range rows {
		seen[string(r[col].(value.Str))] = true
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func v(name string) pivot.Var { return pivot.Var(name) }

// The E1 point shapes of the marketplace: preferences and cart by user
// (key-value fragments) and the user ⋈ orders profile (relational).
func pointShapes(prepared bool) []shape {
	uid := []pivot.Var{"uid"}
	return []shape{
		{name: "prefs", q: scenario.PrefsLookupQuery(), params: uid, prepared: prepared, text: !prepared},
		{name: "cart", q: scenario.CartLookupQuery(), params: uid, prepared: prepared, text: !prepared},
		{name: "profile", q: scenario.ProfileQuery(), params: uid, prepared: prepared, text: !prepared},
	}
}

// genPointHot draws the E1 mix (40 % prefs, 40 % cart, 20 % profile) with
// Zipf-skewed keys over a hot set of users, rotating the three surfaces.
// The hot set and its popularity order are the same for every seed (the
// top-ranked user alone draws a quarter of the requests, so a seeded hot set
// would make rows per request a property of the seed); the seed draws the
// requests.
func genPointHot(g *generator) {
	hot := rand.New(rand.NewSource(hotUsers)).Perm(len(g.d.keys))[:hotUsers]
	z := rand.NewZipf(g.rng, zipfS, 1, hotUsers-1)
	g.fill(1<<16, func(_, pos int) int32 {
		return g.add(g.pick(40, 80, 100), surfaces[pos%3], g.d.keys[hot[z.Uint64()]])
	})
}

// genPointWide draws the same mix with keys uniform over every user.
func genPointWide(g *generator) {
	g.fill(1<<16, func(_, _ int) int32 {
		return g.add(g.pick(40, 80, 100), "", g.d.keys[g.rng.Intn(len(g.d.keys))])
	})
}

func socialShapes() []shape {
	uid := []pivot.Var{"uid"}
	return []shape{
		{name: "feed", q: scenario.FeedQuery(), params: uid, prepared: true},
		{name: "liked", q: scenario.LikedTopicsQuery(), params: uid, prepared: true},
	}
}

// genSocialFeed draws 70 % feed fetches and 30 % liked-topics with
// Zipf-skewed member keys.
func genSocialFeed(g *generator) {
	z := rand.NewZipf(g.rng, zipfS, 1, uint64(len(g.d.keys)-1))
	g.fill(1<<14, func(_, _ int) int32 {
		return g.add(g.pick(70, 100), "", g.d.keys[z.Uint64()])
	})
}

func analyticsShapes() []shape {
	return []shape{
		{name: "search", q: scenario.PersonalizedSearchQuery(), params: []pivot.Var{"uid", "category"}, prepared: true},
		{name: "city_visits", prepared: true, params: []pivot.Var{"city"}, q: pivot.NewCQ(
			pivot.NewAtom("QCityVisits", v("uid"), v("pid"), v("dur")),
			pivot.NewAtom("Users", v("uid"), v("name"), v("city")),
			pivot.NewAtom("Visits", v("uid"), v("pid"), v("dur")))},
		{name: "visits_scan", prepared: true, q: pivot.NewCQ(
			pivot.NewAtom("QVisits", v("uid"), v("pid"), v("dur")),
			pivot.NewAtom("Visits", v("uid"), v("pid"), v("dur")))},
	}
}

// analyticsRotation is the order analytics_scan's three shapes are sent in:
// 60 % on-the-fly personalized searches (0), 25 % city ⋈ visits hash joins
// (1), 15 % full streaming scans of Visits (2). A fixed rotation, because a
// request here takes 2–70 ms and a run sends about a thousand: drawing the
// shapes at random would make the mix, and with it every rate, a property of
// the seed. The searches are kept above half so that the median latency sits
// inside their mode and not on the edge between two.
var analyticsRotation = [20]int{0, 1, 0, 0, 2, 0, 1, 0, 0, 1, 0, 2, 0, 0, 1, 0, 0, 2, 0, 1}

// genAnalyticsScan sends the rotation with seeded parameters; the readers
// start at different points of it.
func genAnalyticsScan(g *generator) {
	cats := distinctColumn(g.d.base["Products"], 1)
	cities := distinctColumn(g.d.base["Users"], 2)
	g.fill(1<<12, func(reader, pos int) int32 {
		switch analyticsRotation[(pos+7*reader)%len(analyticsRotation)] {
		case 0:
			return g.add(0, "", g.d.keys[g.rng.Intn(len(g.d.keys))], cats[g.rng.Intn(len(cats))])
		case 1:
			return g.add(1, "", cities[g.rng.Intn(len(cities))])
		default:
			return g.add(2, "")
		}
	})
}

// coldRelations are the marketplace relations a cold shape may join; every
// one but Products carries the user id, and hasPid marks a product column.
// Visits is left out: it lives in the parallel store, whose simulated
// request fans out to 8 partitions at 150 µs each, and 1.2 ms of spinning
// per request would bury the rewrite this workload is about.
var coldRelations = []struct {
	pred   string
	args   []string // column variables; "uid" and "pid" are the join columns
	hasPid bool
}{
	{"Users", []string{"uid", "name", "city"}, false},
	{"Prefs", []string{"uid", "pkey", "pval"}, false},
	{"Orders", []string{"oid", "uid", "pid", "amount"}, true},
	{"Carts", []string{"uid", "pid", "qty"}, true},
	{"Products", []string{"pid", "category", "descr"}, true},
}

// coldShape builds one 2–4-atom join over distinct relations. Every
// user-keyed atom shares the uid parameter, so execution is a point access;
// product columns either all join on one variable or stay apart (Products
// always joins the first product column, or it would be scanned whole). The
// head is uid plus a random choice of the other variables, which is what
// makes shapes over the same relations structurally distinct.
func coldShape(rng *rand.Rand, n int) shape {
	perm := rng.Perm(len(coldRelations))
	natoms := 2 + rng.Intn(3)
	joinPids := rng.Intn(2) == 0
	var body []pivot.Atom
	var free []pivot.Var
	firstPid := pivot.Var("")
	for _, ri := range perm {
		r := coldRelations[ri]
		if len(body) == natoms {
			break
		}
		if r.pred == "Products" && firstPid == "" {
			continue // needs an earlier product column to join
		}
		args := make([]pivot.Term, len(r.args))
		for i, name := range r.args {
			x := pivot.Var(name)
			switch {
			case name == "uid":
			case name == "pid" && (joinPids || r.pred == "Products") && firstPid != "":
				x = firstPid
			default:
				if name == "pid" {
					x = pivot.Var(fmt.Sprintf("pid%d", len(body)))
					if firstPid == "" {
						firstPid = x
					}
				}
				free = append(free, x)
			}
			args[i] = x
		}
		body = append(body, pivot.Atom{Pred: r.pred, Args: args})
	}
	head := []pivot.Term{pivot.Var("uid")}
	for _, i := range rng.Perm(len(free))[:1+rng.Intn(min(3, len(free)))] {
		head = append(head, free[i])
	}
	return shape{
		name:   fmt.Sprintf("cold%03d", n),
		q:      pivot.CQ{Head: pivot.NewAtom("QCold", head...), Body: body},
		params: []pivot.Var{"uid"},
	}
}

// coldShapeSet draws coldShapes shapes with pairwise distinct fingerprints.
func coldShapeSet(rng *rand.Rand) ([]shape, error) {
	var out []shape
	seen := map[string]bool{}
	for tries := 0; len(out) < coldShapes; tries++ {
		if tries > 100*coldShapes {
			return nil, fmt.Errorf("cold_shapes: only %d distinct shapes after %d draws", len(out), tries)
		}
		sh := coldShape(rng, len(out))
		if len(sh.q.Body) < 2 {
			continue
		}
		fp, err := service.Canonicalize(sh.bind("u"))
		if err != nil {
			return nil, err
		}
		if !seen[fp.Key] {
			seen[fp.Key] = true
			out = append(out, sh)
		}
	}
	return out, nil
}

// genColdShapes gives each shape one user and deals the shapes to the
// readers in disjoint runs, so that between two visits of a shape its
// reader has wrapped — and bumped the catalog epoch — exactly once.
func genColdShapes(g *generator) {
	per := len(g.w.shapes) / len(g.plan.streams)
	for r := range g.plan.streams {
		s := make([]int32, per)
		for i := range s {
			s[i] = g.add(r*per+i, "", g.d.keys[g.rng.Intn(len(g.d.keys))])
		}
		g.plan.streams[r] = s
	}
}

// workloads returns the six traffic mixes. The pool of cold shapes is the
// same for every seed — which relations a shape joins decides how many rows
// it returns, so a seeded pool would make rows_per_s a property of the seed;
// the seed picks the user each shape asks about.
func workloads() ([]*workloadDef, error) {
	cold, err := coldShapeSet(rand.New(rand.NewSource(coldShapes)))
	if err != nil {
		return nil, err
	}
	mat := func() (*deployment, error) { return deployMarket(scenario.Materialized) }
	kv := func() (*deployment, error) { return deployMarket(scenario.KV) }
	return []*workloadDef{
		{
			name: "point_hot", deploy: mat, shapes: pointShapes(false), gen: genPointHot, traceSample: 2000,
			why: "ad-hoc text point reads over a 2 000-user Zipf hot set: every cache hits, so lang+service cost dominates",
		},
		{
			name: "point_wide", deploy: mat, shapes: pointShapes(true), gen: genPointWide, traceSample: 2000,
			why: "prepared point reads uniform over 10 000 users against the 4 096-entry bound-plan cache: plan rebuilds dominate",
		},
		{
			name: "social_feed", deploy: deploySocial, shapes: socialShapes(), gen: genSocialFeed, traceSample: 2000,
			why: "prepared bind-join graph walks with Zipf member keys: exec.BindJoin and kv/doc store round trips dominate",
		},
		{
			name: "analytics_scan", deploy: kv, shapes: analyticsShapes(), gen: genAnalyticsScan, traceSample: 60,
			why: "3-way on-the-fly join, city x visits hash join and full Visits scan on the KV variant: exec kernels and batch scans",
		},
		{
			name: "cold_shapes", deploy: mat, shapes: cold, gen: genColdShapes, cold: true, traceSample: 200,
			why: "256 distinct 2-4-atom shapes with the catalog epoch bumped each cycle: every request is a PACB rewrite",
		},
		{
			name: "point_rw", deploy: mat, shapes: pointShapes(false), gen: genPointHot, traceSample: 2000,
			// Carts 40 %, Prefs 20 %, Visits 30 %, Orders 10 % of the batches.
			writerMix: []string{"Carts", "Visits", "Carts", "Prefs", "Visits", "Carts", "Orders", "Prefs", "Visits", "Carts"},
			why:       "point_hot readers beside one writer of 16-row batches: join-fragment maintenance against reads",
		},
	}, nil
}
