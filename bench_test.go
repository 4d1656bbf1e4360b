// Benchmarks reproducing the paper's quantitative claims — one benchmark
// family per experiment of EXPERIMENTS.md. Run with:
//
//	go test -bench=. -benchmem
//
// E1 — key-based workloads: baseline (prefs in Postgres, carts in MongoDB)
// vs the key-value migration (the scenario's ~20 % gain).
// E2 — personalized item search: on-the-fly cross-store join vs the
// materialized, indexed purchase-history fragment (~40 % extra gain).
// E3 — PACB vs naive Chase & Backchase rewriting time (1–2 orders of
// magnitude, growing with the number of views).
// E4 — vanilla single-store vs hybrid multi-store execution (demo step 3).
// E5 — storage-advisor recommendations applied (demo step 4).
// E6 — binding-pattern (BindJoin) dependent access overhead and safety.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/catalog"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/value"
)

// benchCfg is the dataset scale shared by the workload benchmarks.
func benchCfg() datagen.MarketplaceConfig {
	return datagen.MarketplaceConfig{
		Seed: 42, Users: 2000, Products: 400, OrdersPerUser: 4,
		VisitsPerUser: 8, PrefsPerUser: 3, CartItemsPerUser: 2, ZipfS: 1.3,
	}
}

var (
	benchOnce sync.Once
	benchMkts map[scenario.Variant]*scenario.Marketplace
	benchWls  map[scenario.Variant]*scenario.Workload
	benchKeys []string
	benchPrms [][2]string
)

func setupMarketplaces(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchMkts = map[scenario.Variant]*scenario.Marketplace{}
		benchWls = map[scenario.Variant]*scenario.Workload{}
		for _, variant := range []scenario.Variant{scenario.Baseline, scenario.KV, scenario.Materialized} {
			m, err := scenario.New(benchCfg(), variant)
			if err != nil {
				panic(err)
			}
			w, err := m.Prepare()
			if err != nil {
				panic(err)
			}
			benchMkts[variant] = m
			benchWls[variant] = w
		}
		benchKeys = benchMkts[scenario.Baseline].Data.ZipfUserKeys(500, 99)
		benchPrms = benchMkts[scenario.Baseline].Data.PersonalizedSearchParams(100, 98)
	})
}

// --- E1: key-value migration --------------------------------------------

func benchmarkE1(b *testing.B, variant scenario.Variant) {
	setupMarketplaces(b)
	w := benchWls[variant]
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		n, err := w.RunMixed(benchKeys)
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	if total == 0 {
		b.Fatal("workload returned no rows")
	}
}

func BenchmarkE1KeyValueMigrationBaseline(b *testing.B) { benchmarkE1(b, scenario.Baseline) }
func BenchmarkE1KeyValueMigrationKV(b *testing.B)       { benchmarkE1(b, scenario.KV) }

// --- E2: materialized purchase-history join ------------------------------

func benchmarkE2(b *testing.B, variant scenario.Variant) {
	setupMarketplaces(b)
	w := benchWls[variant]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunSearch(benchPrms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2PersonalizedSearchOnTheFly(b *testing.B)     { benchmarkE2(b, scenario.KV) }
func BenchmarkE2PersonalizedSearchMaterialized(b *testing.B) { benchmarkE2(b, scenario.Materialized) }

// --- E3: PACB vs naive C&B ------------------------------------------------

// e3Instance builds a chain query of length k over relations R0..R(k-1)
// and v identity views per relation (duplicated views inflate the
// universal plan, the regime where naive C&B degenerates).
func e3Instance(k, vPerRel int) (pivot.CQ, []rewrite.View) {
	var body []pivot.Atom
	for i := 0; i < k; i++ {
		body = append(body, pivot.NewAtom(fmt.Sprintf("R%d", i),
			pivot.Var(fmt.Sprintf("x%d", i)), pivot.Var(fmt.Sprintf("x%d", i+1))))
	}
	q := pivot.NewCQ(pivot.NewAtom("Q",
		pivot.Var("x0"), pivot.Var(fmt.Sprintf("x%d", k))), body...)
	var views []rewrite.View
	for i := 0; i < k; i++ {
		for j := 0; j < vPerRel; j++ {
			name := fmt.Sprintf("V%d_%d", i, j)
			views = append(views, rewrite.NewView(name, pivot.NewCQ(
				pivot.NewAtom(name, pivot.Var("a"), pivot.Var("b")),
				pivot.NewAtom(fmt.Sprintf("R%d", i), pivot.Var("a"), pivot.Var("b")))))
		}
	}
	return q, views
}

func benchmarkE3(b *testing.B, alg rewrite.Algorithm, k, vPerRel int) {
	q, views := e3Instance(k, vPerRel)
	b.ReportAllocs()
	b.ResetTimer()
	var chases int
	for i := 0; i < b.N; i++ {
		res, err := rewrite.Rewrite(q, views, rewrite.Options{Algorithm: alg})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rewritings) == 0 {
			b.Fatal("no rewriting")
		}
		chases = res.Stats.VerificationChases
	}
	b.ReportMetric(float64(chases), "verif-chases")
}

func BenchmarkE3RewritePACB_k3v1(b *testing.B)  { benchmarkE3(b, rewrite.PACB, 3, 1) }
func BenchmarkE3RewriteNaive_k3v1(b *testing.B) { benchmarkE3(b, rewrite.NaiveCB, 3, 1) }
func BenchmarkE3RewritePACB_k3v2(b *testing.B)  { benchmarkE3(b, rewrite.PACB, 3, 2) }
func BenchmarkE3RewriteNaive_k3v2(b *testing.B) { benchmarkE3(b, rewrite.NaiveCB, 3, 2) }
func BenchmarkE3RewritePACB_k4v2(b *testing.B)  { benchmarkE3(b, rewrite.PACB, 4, 2) }
func BenchmarkE3RewriteNaive_k4v2(b *testing.B) { benchmarkE3(b, rewrite.NaiveCB, 4, 2) }
func BenchmarkE3RewritePACB_k4v3(b *testing.B)  { benchmarkE3(b, rewrite.PACB, 4, 3) }
func BenchmarkE3RewriteNaive_k4v3(b *testing.B) { benchmarkE3(b, rewrite.NaiveCB, 4, 3) }
func BenchmarkE3RewritePACB_k5v3(b *testing.B)  { benchmarkE3(b, rewrite.PACB, 5, 3) }
func BenchmarkE3RewriteNaive_k5v3(b *testing.B) { benchmarkE3(b, rewrite.NaiveCB, 5, 3) }

// --- Hot-path microbenchmarks ---------------------------------------------
//
// The homomorphism search and the chase are the system-wide hot path: every
// containment check, trigger scan, and backchase verification funnels
// through them. These benchmarks watch allocs/op so regressions in the
// interned-term machinery are visible immediately.

// homBenchInstance builds a dense random-ish edge relation.
func homBenchInstance(edges, nodes int) *pivot.Instance {
	inst := pivot.NewInstance()
	for i := 0; i < edges; i++ {
		inst.Add(pivot.NewAtom("E",
			pivot.CInt(int64((i*13)%nodes)), pivot.CInt(int64((i*7+3)%nodes))))
	}
	return inst
}

func BenchmarkHomSearch(b *testing.B) {
	inst := homBenchInstance(400, 60)
	atoms := []pivot.Atom{
		pivot.NewAtom("E", pivot.Var("x"), pivot.Var("y")),
		pivot.NewAtom("E", pivot.Var("y"), pivot.Var("z")),
		pivot.NewAtom("E", pivot.Var("z"), pivot.Var("w")),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		pivot.ForEachHomBind(atoms, inst, nil, func(pivot.Binding) bool {
			n++
			return true
		})
		if n == 0 {
			b.Fatal("no homomorphisms")
		}
	}
}

func BenchmarkHomExists(b *testing.B) {
	inst := homBenchInstance(400, 60)
	atoms := []pivot.Atom{
		pivot.NewAtom("E", pivot.Var("x"), pivot.Var("y")),
		pivot.NewAtom("E", pivot.Var("y"), pivot.CInt(3)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pivot.HomExists(atoms, inst, nil) {
			b.Fatal("expected a homomorphism")
		}
	}
}

func BenchmarkHomExistsGround(b *testing.B) {
	// The ground-atom membership fast path: no backtracking at all.
	inst := homBenchInstance(400, 60)
	atoms := []pivot.Atom{pivot.NewAtom("E", pivot.CInt(13), pivot.CInt(10))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pivot.HomExists(atoms, inst, nil) {
			b.Fatal("expected a match")
		}
	}
}

func BenchmarkChaseSaturation(b *testing.B) {
	// A copy chain R0 → R1 → … → R7 over 150 seed facts: the chase fires
	// 150×7 TGD triggers per run and re-probes every trigger per pass.
	const depth, seeds = 8, 150
	var tgds []pivot.TGD
	for i := 0; i < depth-1; i++ {
		tgds = append(tgds, pivot.NewTGD(fmt.Sprintf("copy%d", i),
			[]pivot.Atom{pivot.NewAtom(fmt.Sprintf("R%d", i), pivot.Var("x"), pivot.Var("y"))},
			[]pivot.Atom{pivot.NewAtom(fmt.Sprintf("R%d", i+1), pivot.Var("x"), pivot.Var("y"))}))
	}
	cs := pivot.Constraints{TGDs: tgds}
	inst := pivot.NewInstance()
	for i := 0; i < seeds; i++ {
		inst.Add(pivot.NewAtom("R0", pivot.CInt(int64(i)), pivot.CInt(int64(i+1))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chase.Chase(inst, cs, chase.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Instance.Len() != seeds*depth {
			b.Fatalf("saturation reached %d facts, want %d", res.Instance.Len(), seeds*depth)
		}
	}
}

// --- E4: vanilla single-store vs hybrid multi-store (BDB) ----------------

var (
	e4Once    sync.Once
	e4Vanilla *core.Prepared
	e4Hybrid  *core.Prepared
)

func setupBDB(b *testing.B) {
	b.Helper()
	e4Once.Do(func() {
		cfg := datagen.BDBConfig{Seed: 7, Rankings: 2000, UserVisits: 10000}
		van, err := scenario.NewBDB(cfg, false)
		if err != nil {
			panic(err)
		}
		hyb, err := scenario.NewBDB(cfg, true)
		if err != nil {
			panic(err)
		}
		e4Vanilla, err = van.Sys.Prepare(scenario.JoinByWordQuery(), "word")
		if err != nil {
			panic(err)
		}
		e4Hybrid, err = hyb.Sys.Prepare(scenario.JoinByWordQuery(), "word")
		if err != nil {
			panic(err)
		}
	})
}

var e4Words = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}

func benchmarkE4(b *testing.B, p *core.Prepared) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := p.Exec(value.Str(e4Words[i%len(e4Words)]))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty join")
		}
	}
}

func BenchmarkE4BDBJoinVanilla(b *testing.B) {
	setupBDB(b)
	benchmarkE4(b, e4Vanilla)
}

func BenchmarkE4BDBJoinHybrid(b *testing.B) {
	setupBDB(b)
	benchmarkE4(b, e4Hybrid)
}

// --- E5: storage advisor ---------------------------------------------------

var (
	e5Once   sync.Once
	e5Before *core.Prepared
	e5After  *core.Prepared
	e5Keys   []string
)

func setupAdvisor(b *testing.B) {
	b.Helper()
	e5Once.Do(func() {
		// A system whose prefs live only in a relational store, and an
		// advisor that recommends the KV fragment.
		build := func() *core.System {
			s := core.New(core.Options{})
			s.AddRelStore("pg")
			s.AddKVStore("redis")
			s.AddParStore("spark", 4)
			f := &catalog.Fragment{
				Name: "FPrefs", Dataset: "mkt",
				View: rewrite.NewView("FPrefs", pivot.NewCQ(
					pivot.NewAtom("FPrefs", pivot.Var("u"), pivot.Var("k"), pivot.Var("val")),
					pivot.NewAtom("Prefs", pivot.Var("u"), pivot.Var("k"), pivot.Var("val")))),
				Store: "pg",
				Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "prefs",
					Columns: []string{"uid", "k", "val"}},
			}
			if err := s.RegisterFragment(f); err != nil {
				panic(err)
			}
			m := datagen.NewMarketplace(benchCfg())
			if err := s.Materialize("FPrefs", m.Prefs); err != nil {
				panic(err)
			}
			return s
		}
		q := pivot.NewCQ(
			pivot.NewAtom("Q", pivot.Var("u"), pivot.Var("k"), pivot.Var("val")),
			pivot.NewAtom("Prefs", pivot.Var("u"), pivot.Var("k"), pivot.Var("val")))

		sysBefore := build()
		var err error
		e5Before, err = sysBefore.Prepare(q, "u")
		if err != nil {
			panic(err)
		}

		sysAfter := build()
		adv := &advisor.Advisor{Sys: sysAfter, KVStore: "redis", ParStore: "spark"}
		recs, err := adv.Recommend([]advisor.QueryFreq{
			{Q: q, BoundHeadPositions: []int{0}, Freq: 10000},
		})
		if err != nil {
			panic(err)
		}
		applied := false
		for _, r := range recs {
			if r.Action == advisor.ActionAdd {
				if err := adv.Apply(r); err != nil {
					panic(err)
				}
				applied = true
				break
			}
		}
		if !applied {
			panic("advisor produced no add recommendation")
		}
		e5After, err = sysAfter.Prepare(q, "u")
		if err != nil {
			panic(err)
		}
		e5Keys = datagen.NewMarketplace(benchCfg()).ZipfUserKeys(500, 55)
	})
}

func benchmarkE5(b *testing.B, p *core.Prepared) {
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		for _, k := range e5Keys {
			rows, err := p.Exec(value.Str(k))
			if err != nil {
				b.Fatal(err)
			}
			total += len(rows)
		}
	}
	if total == 0 {
		b.Fatal("no rows")
	}
}

func BenchmarkE5AdvisorBefore(b *testing.B) {
	setupAdvisor(b)
	benchmarkE5(b, e5Before)
}

func BenchmarkE5AdvisorAfter(b *testing.B) {
	setupAdvisor(b)
	benchmarkE5(b, e5After)
}

// --- E6: binding patterns / BindJoin ---------------------------------------

func BenchmarkE6BindJoinDependentAccess(b *testing.B) {
	b.ReportAllocs()
	setupMarketplaces(b)
	// Cross-store dependent join: relational users drive KV preference
	// gets through BindJoin (the KV fragment cannot be scanned).
	m := benchMkts[scenario.KV]
	q := pivot.NewCQ(
		pivot.NewAtom("Q", pivot.Var("uid"), pivot.Var("key"), pivot.Var("val")),
		pivot.NewAtom("Users", pivot.Var("uid"), pivot.Var("name"), pivot.CStr("paris")),
		pivot.NewAtom("Prefs", pivot.Var("uid"), pivot.Var("key"), pivot.Var("val")))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Sys.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty bindjoin result")
		}
	}
}

func BenchmarkE6FeasibilityCheck(b *testing.B) {
	// The pure feasibility filter: rejecting an unbound KV scan must be
	// cheap and absolute.
	b.ReportAllocs()
	setupMarketplaces(b)
	m := benchMkts[scenario.KV]
	q := pivot.NewCQ(
		pivot.NewAtom("Q", pivot.Var("u"), pivot.Var("k"), pivot.Var("val")),
		pivot.NewAtom("Prefs", pivot.Var("u"), pivot.Var("k"), pivot.Var("val")))
	sys := m.Sys
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(q); err == nil {
			b.Fatal("infeasible query answered")
		}
	}
}

// --- Service throughput: the concurrent mediator runtime -------------------

// The BenchmarkServiceThroughput family measures the mediator service
// (sessions + shared single-flight rewriting cache + fingerprinting +
// admission) end to end with a closed-loop load generator: every client
// issues its next query the instant the previous one returns. "Hot"
// traffic cycles constant-renamed variants of the scenario's three
// workload shapes — after warmup every query is a cache hit executing
// through the Prepared bind path. "Mixed" traffic adds periodic cold
// fingerprints (distinct query shapes) that run the full PACB rewrite
// under single-flight. Reported metric: achieved queries/sec.

var (
	benchSvcOnce sync.Once
	benchSvc     *service.Service
	benchSvcUIDs []string
)

func setupService(b *testing.B) {
	b.Helper()
	setupMarketplaces(b)
	benchSvcOnce.Do(func() {
		benchSvc = service.New(benchMkts[scenario.Materialized].Sys, service.Options{
			MaxInFlight: 64,
			Schema:      scenario.LogicalSchema,
		})
		benchSvcUIDs = benchMkts[scenario.Materialized].Data.ZipfUserKeys(200, 97)
	})
}

// hotQuery cycles the E1 mix (40 % prefs, 40 % carts, 20 % profile) over
// Zipf-distributed user keys: three fingerprints total, every literal
// different.
func hotQuery(op int) pivot.CQ {
	uid := benchSvcUIDs[op%len(benchSvcUIDs)]
	switch op % 5 {
	case 0, 1:
		return pivot.NewCQ(
			pivot.NewAtom("QPrefs", pivot.CStr(uid), pivot.Var("k"), pivot.Var("val")),
			pivot.NewAtom("Prefs", pivot.CStr(uid), pivot.Var("k"), pivot.Var("val")))
	case 2, 3:
		return pivot.NewCQ(
			pivot.NewAtom("QCart", pivot.CStr(uid), pivot.Var("pid"), pivot.Var("qty")),
			pivot.NewAtom("Carts", pivot.CStr(uid), pivot.Var("pid"), pivot.Var("qty")))
	default:
		return pivot.NewCQ(
			pivot.NewAtom("QProfile", pivot.CStr(uid), pivot.Var("name"), pivot.Var("pid")),
			pivot.NewAtom("Users", pivot.CStr(uid), pivot.Var("name"), pivot.Var("city")),
			pivot.NewAtom("Orders", pivot.Var("oid"), pivot.CStr(uid), pivot.Var("pid"), pivot.Var("amount")))
	}
}

// coldQuery builds one of eight structurally distinct join shapes —
// distinct fingerprints, so each first occurrence runs the PACB rewrite.
func coldQuery(shape int) pivot.CQ {
	shape = shape % 8
	body := []pivot.Atom{
		pivot.NewAtom("Users", pivot.Var("u"), pivot.Var("name"), pivot.Var("city")),
		pivot.NewAtom("Orders", pivot.Var("o"), pivot.Var("u"), pivot.Var("p"), pivot.Var("a")),
	}
	for i := 0; i <= shape%3; i++ {
		body = append(body, pivot.NewAtom("Visits",
			pivot.Var("u"), pivot.Var(fmt.Sprintf("vp%d", i)), pivot.Var(fmt.Sprintf("vd%d", i))))
	}
	head := pivot.NewAtom("QCold", pivot.Var("u"), pivot.Var("name"))
	if shape >= 3 {
		head = pivot.NewAtom("QCold", pivot.Var("u"), pivot.Var("name"), pivot.Var(fmt.Sprintf("vd%d", shape%3)))
	}
	if shape >= 6 {
		body = append(body, pivot.NewAtom("Products",
			pivot.Var("p"), pivot.Var("cat"), pivot.Var("descr")))
	}
	return pivot.CQ{Head: head, Body: body}
}

func benchmarkServiceThroughput(b *testing.B, clients int, next func(client, op int) pivot.CQ, warm func() []pivot.CQ) {
	setupService(b)
	ctx := context.Background()
	for _, q := range warm() {
		if _, err := benchSvc.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	opsPer := b.N/clients + 1
	// Floor the per-client op count so a -benchtime=1x run still measures
	// a meaningful closed-loop sample: a 2-op run is all warmup noise, and
	// qps — not ns/op — is the comparison metric for this family.
	if opsPer < 100 {
		opsPer = 100
	}
	b.ResetTimer()
	res := service.RunClosedLoop(ctx, benchSvc, clients, opsPer, next)
	b.StopTimer()
	if res.Errors > 0 {
		b.Fatalf("%d/%d queries failed", res.Errors, res.Ops)
	}
	b.ReportMetric(res.QPS(), "qps")
	b.ReportMetric(float64(res.Ops), "ops")
}

func hotWarmup() []pivot.CQ {
	return []pivot.CQ{hotQuery(0), hotQuery(2), hotQuery(4)}
}

func hotNext(client, op int) pivot.CQ { return hotQuery(client*7919 + op) }

// mixedNext serves 1 cold-shape query in 10; the other nine are hot.
func mixedNext(client, op int) pivot.CQ {
	i := client*7919 + op
	if i%10 == 9 {
		return coldQuery(i / 10)
	}
	return hotQuery(i)
}

func BenchmarkServiceThroughput_Hot1(b *testing.B) {
	benchmarkServiceThroughput(b, 1, hotNext, hotWarmup)
}

func BenchmarkServiceThroughput_Hot4(b *testing.B) {
	benchmarkServiceThroughput(b, 4, hotNext, hotWarmup)
}

func BenchmarkServiceThroughput_Hot16(b *testing.B) {
	benchmarkServiceThroughput(b, 16, hotNext, hotWarmup)
}

func BenchmarkServiceThroughput_Mixed4(b *testing.B) {
	benchmarkServiceThroughput(b, 4, mixedNext, hotWarmup)
}

func BenchmarkServiceThroughput_Mixed16(b *testing.B) {
	benchmarkServiceThroughput(b, 16, mixedNext, hotWarmup)
}

// --- Service streaming: the cursor API vs materialization ------------------

// The BenchmarkServiceStream family measures the PR 4 cursor API on a
// wide scan (64k rows through one relational fragment): _Hot streams the
// result through service.Rows and reports both time-to-first-row and the
// full drain, _Materialized drains the same query through the legacy
// slice-returning path. The gap between ttfr_us and full_us is the
// latency a streaming client stops paying; rows_per_s compares pipeline
// throughput.

const benchStreamRows = 64 << 10

var (
	benchStreamOnce sync.Once
	benchStreamSvc  *service.Service
)

func setupStreamService(b *testing.B) {
	b.Helper()
	benchStreamOnce.Do(func() {
		sys := core.New(core.Options{})
		sys.AddRelStore("rel")
		vars := []pivot.Term{pivot.Var("x"), pivot.Var("y"), pivot.Var("z")}
		view := rewrite.NewView("FWide", pivot.NewCQ(
			pivot.NewAtom("FWide", vars...),
			pivot.NewAtom("Wide", vars...)))
		if err := sys.RegisterFragment(&catalog.Fragment{
			Name: "FWide", Dataset: "bench", View: view, Store: "rel",
			Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: "wide",
				Columns: []string{"x", "y", "z"}},
		}); err != nil {
			b.Fatal(err)
		}
		rows := make([]value.Tuple, benchStreamRows)
		for i := range rows {
			rows[i] = value.TupleOf(fmt.Sprintf("k%07d", i), i, i%997)
		}
		if err := sys.Materialize("FWide", rows); err != nil {
			b.Fatal(err)
		}
		benchStreamSvc = service.New(sys, service.Options{MaxInFlight: 8})
	})
}

func streamScanQuery() pivot.CQ {
	return pivot.NewCQ(
		pivot.NewAtom("QWide", pivot.Var("x"), pivot.Var("y"), pivot.Var("z")),
		pivot.NewAtom("Wide", pivot.Var("x"), pivot.Var("y"), pivot.Var("z")))
}

func BenchmarkServiceStream_Hot(b *testing.B) {
	setupStreamService(b)
	ctx := context.Background()
	q := streamScanQuery()
	if _, err := benchStreamSvc.Query(ctx, q); err != nil { // warm the rewrite
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ttfr, full time.Duration
	var rows int64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		r, err := benchStreamSvc.QueryRows(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Next() {
			b.Fatal("no rows")
		}
		ttfr += time.Since(start)
		n := int64(1)
		for {
			chunk, err := r.NextChunk()
			if err != nil {
				b.Fatal(err)
			}
			if chunk == nil {
				break
			}
			n += int64(len(chunk))
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		full += time.Since(start)
		rows += n
	}
	b.StopTimer()
	if rows != int64(b.N)*benchStreamRows {
		b.Fatalf("drained %d rows, want %d", rows, int64(b.N)*benchStreamRows)
	}
	b.ReportMetric(float64(ttfr.Microseconds())/float64(b.N), "ttfr_us")
	b.ReportMetric(float64(full.Microseconds())/float64(b.N), "full_us")
	b.ReportMetric(float64(rows)/full.Seconds(), "rows_per_s")
}

func BenchmarkServiceStream_Materialized(b *testing.B) {
	setupStreamService(b)
	ctx := context.Background()
	q := streamScanQuery()
	if _, err := benchStreamSvc.Query(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var full time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res, err := benchStreamSvc.Query(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		full += time.Since(start)
		if len(res.Rows) != benchStreamRows {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(full.Microseconds())/float64(b.N), "full_us")
	b.ReportMetric(float64(b.N)*benchStreamRows/full.Seconds(), "rows_per_s")
}
