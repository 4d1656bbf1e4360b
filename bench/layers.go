package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engines/docstore"
	"repro/internal/engines/engine"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/service"
	"repro/internal/translate"
	"repro/internal/value"
	"repro/internal/workload"
)

// The traced run replays a fixed sample of the workload's requests on one
// client, after the untraced window:
//
//   - through the service, one span per request, twice: "cold" right after
//     a catalog-epoch bump (every fingerprint's first request re-runs the
//     rewrite, every key's first request builds its physical plan), then
//     "warm" (everything the sample needs is cached);
//   - decomposed, twice in the same two states: the calls the service
//     makes for the request, made directly on each layer's public
//     functions, one span each, under a "decomposed.<pass>" request span;
//   - probes: layer calls a request does not make on its own path (the
//     other two surface parsers, a bare PACB search, a bare plan build,
//     one direct store access, a maintained insert), under a "probes" span.
//
// Per-layer metrics are medians over spans of one name. The process the
// spans are taken in is otherwise idle, so they are single-client costs.

const (
	perShapeProbes = 24 // PACB/prepare/plan-choice probes, spread over the sample's fingerprints
	maintainReps   = 4  // maintained insert+delete probes per relation
	scanReps       = 3  // full fragment scans
)

// traced is the state of one traced run.
type traced struct {
	ctx     context.Context
	d       *deployment
	w       *workloadDef
	tr      *tracer
	sample  []*query
	fps     []service.Fingerprint
	planner *translate.Planner
	acct    *workload.Accountant
	hist    obs.Histogram

	preps map[string]*core.Prepared // the decomposed replay's own prepared queries
	seen  map[string]bool           // fingerprint+args it has opened before

	rows, chunks, execNs int64 // decomposed warm pass totals

	rewrites   []rewrite.Stats // one per PACB probe
	rewritings int64           // rewritings those probes found
	scanned    int64           // rows the scan probes read
	rng        *rand.Rand      // draws the maintained-write probe rows
}

func tracedRun(ctx context.Context, d *deployment, w *workloadDef, p *plan, ws windowStats, o runOpts) (map[string]metric, map[string]map[string]float64, error) {
	t := &traced{
		ctx: ctx, d: d, w: w,
		sample:  p.sample(w.traceSample, false),
		planner: &translate.Planner{Catalog: d.sys.Catalog, Stores: d.sys.Stores},
		acct: workload.New(workload.Options{
			Catalog: d.sys.Catalog, Stores: d.sys.Stores, Schema: d.sys.SchemaConstraints}),
		preps: map[string]*core.Prepared{},
		seen:  map[string]bool{},
		rng:   rand.New(rand.NewSource(o.seed)),
	}
	t.tr = newTracer(len(t.sample)*48 + 4096)
	t.fps = make([]service.Fingerprint, len(t.sample))
	for i, q := range t.sample {
		fp, err := service.Canonicalize(q.cq)
		if err != nil {
			return nil, nil, err
		}
		t.fps[i] = fp
	}
	sess := d.svc.NewSession()
	defer sess.Close()

	// Through the service: cold, then warm.
	if err := d.bumpEpoch(1 << 20); err != nil {
		return nil, nil, err
	}
	if _, err := t.servicePass(sess, "service.request.cold"); err != nil {
		return nil, nil, err
	}
	work, err := t.servicePass(sess, "service.request.warm")
	if err != nil {
		return nil, nil, err
	}

	// Decomposed, in the same two states, then the probes.
	for _, pass := range []string{"decomposed.cold", "decomposed.warm"} {
		if err := t.decomposedPass(pass); err != nil {
			return nil, nil, err
		}
	}
	writes, err := t.probes()
	if err != nil {
		return nil, nil, err
	}

	m := t.metrics(ws, work, writes)
	// The service replay records one span per request: its overhead is what
	// a span costs against what a (warm) request takes.
	warm := t.tr.durations("service.request.warm")
	m["trace.overhead_frac"] = metric{Value: spanCost() / medianInt64(warm), Unit: "ratio", N: len(warm)}
	m["gen.overhead_ns_per_op"] = metric{Value: generatorOverhead(p), Unit: "ns", N: 1}
	shares := map[string]map[string]float64{
		"cold": chainShares(t.tr.spans, "cold"),
		"warm": chainShares(t.tr.spans, "warm"),
	}
	if o.outDir != "" {
		if err := t.tr.writeTrace(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, nil, err
		}
	}
	return m, shares, nil
}

// storeWork sums what the stores did for the requests of one pass.
type storeWork struct {
	ops, rows                        int64
	requests, lookups, scans, tuples int64
	simLatency                       time.Duration
}

// servicePass sends the sample through the service on one session, one
// span per request.
func (t *traced) servicePass(sess *service.Session, name string) (storeWork, error) {
	runtime.GC() // see decomposedPass
	tr := t.tr
	var w storeWork
	lat := storeLatencies(t.d.sys.Stores)
	for i, q := range t.sample {
		id := tr.begin(name, -1, int32(i+1))
		r, err := open(t.ctx, sess, q)
		if err != nil {
			return w, err
		}
		for {
			chunk, err := r.NextChunk()
			if err != nil {
				r.Close()
				return w, err
			}
			if chunk == nil {
				break
			}
			w.rows += int64(len(chunk))
		}
		if err := r.Close(); err != nil {
			return w, err
		}
		tr.end(id)
		w.ops++
		for store, c := range r.PerStore() {
			w.requests += c.Requests
			w.lookups += c.Lookups
			w.scans += c.Scans
			w.tuples += c.Tuples
			w.simLatency += time.Duration(c.Requests) * lat[store]
		}
	}
	return w, nil
}

// storeLatencies reads each store's configured simulated request latency.
func storeLatencies(st *translate.Stores) map[string]time.Duration {
	out := map[string]time.Duration{}
	for n, s := range st.Rel {
		out[n] = s.RequestLatency()
	}
	for n, s := range st.KV {
		out[n] = s.RequestLatency()
	}
	for n, s := range st.Doc {
		out[n] = s.RequestLatency()
	}
	for n, s := range st.Text {
		out[n] = s.RequestLatency()
	}
	for n, s := range st.Par {
		out[n] = s.RequestLatency()
	}
	return out
}

// decomposedPass makes, for every sampled request, the layer calls the
// service would make for it in the pass's state, each in its own span.
// The replay keeps its own prepared queries, so the first pass finds
// nothing cached and the second everything.
//
// Every pass starts from a collected heap: a pass of point requests is
// shorter than one collector cycle over the deployment's heap, so without
// this a pass would run either wholly beside the collector or wholly
// without it, by chance.
func (t *traced) decomposedPass(pass string) error {
	runtime.GC()
	tr := t.tr
	for i, q := range t.sample {
		fp := t.fps[i]
		req := tr.begin(pass, -1, int32(i+1))
		start := time.Now()
		if q.text != "" {
			id := tr.begin("lang.parse", req, int32(i+1))
			_, err := parseText(q.lang, q.text, t.d.schema)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		var canon time.Duration
		if q.stmt == nil {
			id := tr.begin("service.canonicalize", req, int32(i+1))
			_, err := service.Canonicalize(q.cq)
			canon = time.Duration(tr.end(id))
			if err != nil {
				return err
			}
		}
		prep := t.preps[fp.Key]
		if prep == nil {
			id := tr.begin("core.prepare", req, int32(i+1))
			var err error
			prep, err = t.d.sys.Prepare(fp.Query, fp.Params...)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("prepare %s: %w", fp.Query, err)
			}
			t.preps[fp.Key] = prep
		}
		name, key := "core.exec_open_repeat", fp.Key+value.Tuple(fp.Args).Key()
		if !t.seen[key] {
			name, t.seen[key] = "core.exec_open_first", true
		}
		id := tr.begin(name, req, int32(i+1))
		rows, err := prep.ExecRows(t.ctx, nil, fp.Args...)
		bind := time.Duration(tr.end(id))
		if err != nil {
			return fmt.Errorf("exec %s: %w", fp.Query, err)
		}
		id = tr.begin("exec.first_chunk", req, int32(i+1))
		chunk, err := rows.NextChunk()
		first := time.Duration(tr.end(id))
		id = tr.begin("exec.drain", req, int32(i+1))
		var n, chunks int64
		for chunk != nil && err == nil {
			n += int64(len(chunk))
			chunks++
			chunk, err = rows.NextChunk()
		}
		if cerr := rows.Close(); err == nil {
			err = cerr
		}
		drain := time.Duration(tr.end(id))
		if err != nil {
			return fmt.Errorf("drain %s: %w", fp.Query, err)
		}
		total := time.Since(start)
		id = tr.begin("workload.record", req, int32(i+1))
		t.acct.Record(workload.Sample{
			Fingerprint: fp.Key, Query: fp.Query, Params: fp.Params, Rows: n, Total: total,
			Phases:   [workload.NumPhases]time.Duration{0, canon, 0, bind, first, drain},
			PerStore: rows.PerStore(), Prov: rows.PlanProvenance(),
		})
		tr.end(id)
		id = tr.begin("obs.observe", req, int32(i+1))
		t.hist.Observe(total)
		tr.end(id)
		tr.end(req)
		if pass == "decomposed.warm" {
			t.rows, t.chunks, t.execNs = t.rows+n, t.chunks+chunks, t.execNs+int64(first+drain)
		}
	}
	return nil
}

// parseText is the surface-language dispatch the service performs.
func parseText(language, text string, schema lang.Schema) (pivot.CQ, error) {
	switch language {
	case "sql":
		return lang.ParseSQL(text, schema)
	case "flwor":
		return lang.ParseFLWOR(text, schema)
	}
	return lang.ParseCQ(text)
}

// boundHead lists, per fingerprint parameter, the head position it sits at
// (the canonical query carries every parameter in its head).
func boundHead(fp service.Fingerprint) []int {
	pos := make([]int, len(fp.Params))
	for k, p := range fp.Params {
		for h, a := range fp.Query.Head.Args {
			if a == pivot.Term(p) {
				pos[k] = h
				break
			}
		}
	}
	return pos
}

// bindRewriting substitutes a request's argument values for the parameter
// variables of a symbolic rewriting, which keeps them at the head positions
// the fingerprint's parameters have.
func bindRewriting(rw pivot.CQ, fp service.Fingerprint) pivot.CQ {
	sub := pivot.NewSubst()
	for k, h := range boundHead(fp) {
		if x, ok := rw.Head.Args[h].(pivot.Var); ok {
			sub[x] = pivot.CStr(string(fp.Args[k].(value.Str)))
		}
	}
	return rw.Apply(sub)
}

// writeWork sums what the maintained write probes did.
type writeWork struct {
	baseRows, storeWrites int64
	ns                    int64
}

// probes times the layer calls that are not on every request's own path.
func (t *traced) probes() (writeWork, error) {
	runtime.GC()
	tr, sys := t.tr, t.d.sys
	var ww writeWork
	root := tr.begin("probes", -1, 0)
	defer tr.end(root)
	span := func(name string, fn func() error) error {
		id := tr.begin(name, root, 0)
		err := fn()
		tr.end(id)
		return err
	}

	// Per request: the three parsers, canonicalization, one plan build in
	// the chosen order, one direct access to the fragment the key selects.
	orders := map[string][]int{}
	for i, q := range t.sample {
		fp := t.fps[i]
		sh := t.w.shapes[q.shape]
		for _, surface := range surfaces {
			text := sh.render(surface, t.d.schema, q.vals...)
			if err := span("lang.parse_"+surface, func() error {
				_, err := parseText(surface, text, t.d.schema)
				return err
			}); err != nil {
				return ww, fmt.Errorf("%s %q: %w", surface, text, err)
			}
		}
		if err := span("service.canonicalize", func() error {
			_, err := service.Canonicalize(q.cq)
			return err
		}); err != nil {
			return ww, err
		}
		bound := bindRewriting(t.preps[fp.Key].Rewriting(), fp)
		order, ok := orders[fp.Key]
		if !ok {
			pl, err := t.planner.Build(bound)
			if err != nil {
				return ww, err
			}
			order = pl.Order
			orders[fp.Key] = order
		}
		if err := span("translate.build_ordered", func() error {
			_, err := t.planner.BuildOrdered(bound, order)
			return err
		}); err != nil {
			return ww, err
		}
		if f, filters := keyedAccess(sys.Catalog, bound); f != nil {
			if err := span("engines.point_access", func() error {
				return t.access(f, filters, nil)
			}); err != nil {
				return ww, err
			}
		}
	}

	// Per fingerprint: the bare PACB search, the plan choice over its
	// rewritings, and the two together as System.Prepare runs them.
	reps := max(1, perShapeProbes/len(orders))
	done := map[string]bool{}
	for i := range t.sample {
		fp := t.fps[i]
		if done[fp.Key] {
			continue
		}
		done[fp.Key] = true
		for r := 0; r < reps; r++ {
			var res *rewrite.Result
			if err := span("rewrite.pacb", func() (err error) {
				res, err = rewrite.Rewrite(fp.Query, sys.Catalog.Views(""), rewrite.Options{
					Schema: sys.SchemaConstraints(), AccessPatterns: sys.Catalog.AccessPatterns(),
					BoundHeadPositions: boundHead(fp)})
				return err
			}); err != nil {
				return ww, err
			}
			t.rewrites = append(t.rewrites, res.Stats)
			t.rewritings += int64(len(res.Rewritings))
			bound := make([]pivot.CQ, len(res.Rewritings))
			for j, rw := range res.Rewritings {
				bound[j] = bindRewriting(rw, fp)
			}
			if err := span("translate.choose_best", func() error {
				_, _, err := t.planner.ChooseBest(bound)
				return err
			}); err != nil {
				return ww, err
			}
			if err := span("core.prepare", func() error {
				_, err := sys.Prepare(fp.Query, fp.Params...)
				return err
			}); err != nil {
				return ww, err
			}
		}
	}

	// Batch scan rate of the deployment's largest scannable fragment.
	f, ok := sys.Catalog.Get(t.d.scanFrag)
	if !ok {
		return ww, fmt.Errorf("no fragment %s", t.d.scanFrag)
	}
	for r := 0; r < scanReps; r++ {
		if err := span("engines.scan", func() error { return t.access(f, nil, &t.scanned) }); err != nil {
			return ww, err
		}
	}

	// Maintained writes, straight on the maintainer: a 16-row insert and
	// the delete that undoes it, into the cheapest and the dearest relation.
	for ri, rel := range []struct{ role, name string }{{"light", t.d.light[0]}, {"heavy", t.d.heavy}} {
		for r := 0; r < maintainReps; r++ {
			rows := make([]value.Tuple, writeBatchRows)
			for j := range rows {
				rows[j] = t.d.freshRow(rel.name, 10_000_000+(ri*maintainReps+r)*writeBatchRows+j, t.rng)
			}
			for _, op := range []struct {
				name  string
				apply func(string, []value.Tuple) (*core.DMLReport, error)
			}{{"maintain.insert." + rel.role, t.d.mt.InsertInto}, {"maintain.delete." + rel.role, t.d.mt.DeleteFrom}} {
				id := tr.begin(op.name, root, 0)
				rep, err := op.apply(rel.name, rows)
				ww.ns += tr.end(id)
				if err != nil {
					return ww, fmt.Errorf("%s %s: %w", op.name, rel.name, err)
				}
				ww.baseRows += int64(rep.Rows)
				for _, fd := range rep.Fragments {
					ww.storeWrites += int64(fd.Added + fd.Removed)
				}
			}
		}
	}
	return ww, nil
}

// keyedAccess picks the first body atom of a bound rewriting that names a
// fragment and carries constants, with those constants as filters.
func keyedAccess(cat *catalog.Catalog, bound pivot.CQ) (*catalog.Fragment, []engine.EqFilter) {
	for _, a := range bound.Body {
		f, ok := cat.Get(a.Pred)
		if !ok {
			continue
		}
		var filters []engine.EqFilter
		for col, arg := range a.Args {
			if c, ok := arg.(pivot.Const); ok {
				filters = append(filters, engine.EqFilter{Col: col, Val: value.Of(c.V)})
			}
		}
		if len(filters) > 0 {
			return f, filters
		}
	}
	return nil, nil
}

// access reads a fragment through its store's native batch call and drains
// the result; rows, when non-nil, is increased by the rows read.
func (t *traced) access(f *catalog.Fragment, filters []engine.EqFilter, rows *int64) error {
	st := t.d.sys.Stores
	var it engine.BatchIterator
	var err error
	switch f.Layout.Kind {
	case catalog.LayoutRel:
		it, err = st.Rel[f.Store].SelectBatchCounted(t.ctx, f.Layout.Collection, filters, nil, nil)
	case catalog.LayoutPar:
		it, err = st.Par[f.Store].SelectBatchCounted(t.ctx, f.Layout.Collection, filters, nil, nil)
	case catalog.LayoutKV:
		var key value.Value
		for _, fl := range filters {
			if fl.Col == f.Layout.KeyCol {
				key = fl.Val
			}
		}
		if key == nil {
			return fmt.Errorf("key-value fragment %s read without its key", f.Name)
		}
		it, err = st.KV[f.Store].GetBatchCounted(t.ctx, f.Layout.Collection, translate.KVKey(key), nil)
	case catalog.LayoutDoc:
		pf := make([]docstore.PathFilter, len(filters))
		for i, fl := range filters {
			pf[i] = docstore.PathFilter{Path: f.Layout.DocPaths[fl.Col], Val: fl.Val}
		}
		it, err = st.Doc[f.Store].FindTuplesBatchCounted(t.ctx, f.Layout.Collection, pf, f.Layout.DocPaths, nil)
	default:
		return fmt.Errorf("fragment %s: no direct access for layout %s", f.Name, f.Layout.Kind)
	}
	if err != nil {
		return err
	}
	got, err := engine.DrainBatches(it)
	if rows != nil {
		*rows += int64(len(got))
	}
	return err
}

// requestSums adds up, per replayed request, the duration of the spans
// directly under its span of the given name.
func requestSums(spans []span, name string) map[int32]int64 {
	out := map[int32]int64{}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && spans[p].Name == name {
			out[spans[i].Req] += spans[i].End - spans[i].Start
		}
	}
	return out
}

// metrics assembles the per-layer report from the spans and the counters.
func (t *traced) metrics(ws windowStats, work storeWork, writes writeWork) map[string]metric {
	m := map[string]metric{}
	// med reports the median duration of the spans called span, in unit.
	med := func(name, span, unit string) {
		div := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
		d := t.tr.durations(span)
		m[name] = metric{Value: medianInt64(d) / div, Unit: unit, N: len(d)}
	}
	count := func(name string, v float64, unit string, n int64) {
		m[name] = metric{Value: v, Unit: unit, N: int(n)}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	med("lang.parse_sql_us", "lang.parse_sql", "us")
	med("lang.parse_flwor_us", "lang.parse_flwor", "us")
	med("lang.parse_cq_us", "lang.parse_cq", "us")
	med("service.canonicalize_us", "service.canonicalize", "us")
	med("workload.record_ns", "workload.record", "ns")
	med("obs.observe_ns", "obs.observe", "ns")
	med("core.prepare_ms", "core.prepare", "ms")
	med("core.exec_open_first_us", "core.exec_open_first", "us")
	med("core.exec_open_repeat_us", "core.exec_open_repeat", "us")
	med("translate.build_ordered_us", "translate.build_ordered", "us")
	med("translate.choose_best_us", "translate.choose_best", "us")
	med("rewrite.pacb_ms", "rewrite.pacb", "ms")
	med("exec.ttfr_us", "exec.first_chunk", "us")
	med("exec.drain_us", "exec.drain", "us")
	med("engines.point_access_us", "engines.point_access", "us")
	med("maintain.apply_ms.light", "maintain.insert.light", "ms")
	med("maintain.apply_ms.heavy", "maintain.insert.heavy", "ms")

	// What a warm call through the service costs beyond the layer calls it
	// makes: cache lookup, admission, column trimming, accounting glue.
	chain := requestSums(t.tr.spans, "decomposed.warm")
	var over []int64
	for i := range t.tr.spans {
		if s := t.tr.spans[i]; s.Name == "service.request.warm" {
			over = append(over, s.End-s.Start-chain[s.Req])
		}
	}
	m["service.overhead_us"] = metric{Value: medianInt64(over) / 1e3, Unit: "us", N: len(over)}

	sb, sa := ws.svcBefore, ws.svcAfter
	queries := sa.Queries - sb.Queries
	count("service.cache_hit_ratio", ratio(sa.CacheHits-sb.CacheHits, queries), "ratio", queries)
	count("service.coalesced_per_kop", 1e3*ratio(sa.Coalesced-sb.Coalesced, queries), "count", queries)
	count("service.retries_per_kop", 1e3*ratio(sa.Retries-sb.Retries, queries), "count", queries)

	var chases, cands int64
	for _, st := range t.rewrites {
		chases += int64(st.VerificationChases)
		cands += int64(st.Candidates)
	}
	nrw := int64(len(t.rewrites))
	count("rewrite.verification_chases_per_query", ratio(chases, nrw), "count", nrw)
	count("rewrite.candidates_per_query", ratio(cands, nrw), "count", nrw)
	count("rewrite.rewritings_per_query", ratio(t.rewritings, nrw), "count", nrw)

	n := int64(len(t.sample))
	count("exec.rows_per_s", 1e9*ratio(t.rows, t.execNs), "1/s", n)
	count("exec.chunks_per_op", ratio(t.chunks, n), "count", n)

	var scanNs int64
	for _, d := range t.tr.durations("engines.scan") {
		scanNs += d
	}
	count("engines.scan_rows_per_s", 1e9*ratio(t.scanned, scanNs), "1/s", scanReps)
	count("engines.requests_per_op", ratio(work.requests, work.ops), "count", work.ops)
	count("engines.lookups_per_op", ratio(work.lookups, work.ops), "count", work.ops)
	count("engines.scans_per_op", ratio(work.scans, work.ops), "count", work.ops)
	count("engines.tuples_per_row_returned", ratio(work.tuples, work.rows), "ratio", work.ops)
	count("engines.sim_latency_us_per_op", float64(work.simLatency.Microseconds())/float64(work.ops), "us", work.ops)

	count("maintain.ns_per_base_row", ratio(writes.ns, writes.baseRows), "ns", writes.baseRows)
	count("maintain.store_writes_per_base_row", ratio(writes.storeWrites, writes.baseRows), "ratio", writes.baseRows)

	b, a := ws.before, ws.after
	count("proc.allocs_per_op", ratio(int64(a.mem.Mallocs-b.mem.Mallocs), ws.reads), "count", ws.reads)
	count("proc.alloc_bytes_per_op", ratio(int64(a.mem.TotalAlloc-b.mem.TotalAlloc), ws.reads), "B", ws.reads)
	count("proc.gc_pause_total_ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6, "ms", int64(a.mem.NumGC-b.mem.NumGC))
	gcFrac := 0.0
	if cpu := a.totalCPU - b.totalCPU; cpu > 0 {
		gcFrac = (a.gcCPU - b.gcCPU) / cpu
	}
	count("proc.gc_cpu_frac", gcFrac, "ratio", int64(a.mem.NumGC-b.mem.NumGC))
	return m
}

// spanCost times the tracer itself: opening and closing one span, in
// nanoseconds.
func spanCost() float64 {
	const n = 1 << 16
	tr := newTracer(n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("span", -1, 0))
	}
	return float64(time.Since(t0)) / n
}

// generatorOverhead times the reader loop against a target that does
// nothing: the harness's own cost per request, in nanoseconds.
func generatorOverhead(p *plan) float64 {
	const span = 50 * time.Millisecond
	r := &reader{stream: p.streams[0], lat: make([]int64, 0, 1<<20), ttfr: make([]int64, 0, 1<<20),
		send: func(context.Context, *query) outcome { return outcome{end: time.Now()} }}
	r.run(context.Background(), p.queries, time.Now(), span, 1)
	return float64(span) / float64(max(r.attempted, 1))
}
