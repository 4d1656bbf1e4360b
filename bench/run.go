package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/service"
	"repro/internal/value"
)

const (
	// setupRuns is how many times an end-to-end run sets the deployment
	// up; setup_s is the median.
	setupRuns = 3
	// warmupTime is sent and thrown away before the window (caches fill,
	// the heap reaches its working size).
	warmupTime = time.Second
	// oracleSample is how many distinct requests are checked against the
	// oracle before timing (and re-read after point_rw's writer stops).
	oracleSample = 256
)

// metric is one reported number. N and Rule say how many samples it rests
// on and which percentile rule applied; they are left out of the contract
// line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Rule  string  `json:"rule,omitempty"`
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload   string                        `json:"workload"`
	Seed       int64                         `json:"seed"`
	Clients    int                           `json:"clients"`
	Seconds    float64                       `json:"window_seconds"`
	Correct    bool                          `json:"correct"`
	Problems   []string                      `json:"problems,omitempty"`
	Attempted  int64                         `json:"attempted"`
	Failed     int64                         `json:"failed"`
	StreamHash string                        `json:"op_stream_sha256"`
	EndToEnd   map[string]metric             `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric             `json:"per_layer,omitempty"`
	Shares     map[string]map[string]float64 `json:"layer_shares,omitempty"`
}

// runOpts selects what a run measures.
type runOpts struct {
	seed     int64
	window   time.Duration // the measured window, cut in subWindows parts
	warmup   time.Duration
	setups   int    // how many times to set up (setup_s is the median)
	endToEnd bool   // report the end-to-end metrics
	traced   bool   // replay a sample with spans and report the per-layer metrics
	outDir   string // where trace files go ("" writes none)
}

// clientCount is the closed loop's size: the stores' simulated request
// latency is a busy spin, so more clients than cores would measure the
// scheduler.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// buildPlan generates everything the run sends from the seed.
func buildPlan(d *deployment, w *workloadDef, seed int64, readers int) *plan {
	p := &plan{streams: make([][]int32, readers)}
	g := &generator{d: d, w: w, rng: rand.New(rand.NewSource(seed)), plan: p, byKey: map[string]int32{}}
	w.gen(g)
	mix := w.writerMix
	if mix == nil {
		mix = d.light
	}
	p.writes = genWrites(d, g.rng, mix)
	return p
}

// hash fingerprints the generated inputs: same seed, same bytes.
func (p *plan) hash() string {
	h := sha256.New()
	for i := range p.queries {
		h.Write([]byte(p.queries[i].describe()))
		h.Write([]byte{0})
	}
	for _, s := range p.streams {
		binary.Write(h, binary.LittleEndian, s)
	}
	for _, b := range p.writes {
		for _, r := range b[0].Rows {
			h.Write([]byte(b[0].Relation))
			h.Write([]byte(r.Key()))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sample returns up to n distinct requests in the order the readers would
// first send them, taking turns between the streams.
func (p *plan) sample(n int, distinct bool) []*query {
	var out []*query
	seen := map[int32]bool{}
	longest := 0
	for _, s := range p.streams {
		longest = max(longest, len(s))
	}
	for i := 0; i < longest && len(out) < n; i++ {
		for _, s := range p.streams {
			if i < len(s) && len(out) < n && !(distinct && seen[s[i]]) {
				seen[s[i]] = true
				out = append(out, &p.queries[s[i]])
			}
		}
	}
	return out
}

// fetch sends q through the service and returns copies of its rows.
func fetch(ctx context.Context, sess *service.Session, q *query) ([]value.Tuple, error) {
	r, err := open(ctx, sess, q)
	if err != nil {
		return nil, err
	}
	var rows []value.Tuple
	for {
		chunk, err := r.NextChunk()
		if err != nil {
			r.Close()
			return nil, err
		}
		if chunk == nil {
			return rows, r.Close()
		}
		for _, t := range chunk {
			rows = append(rows, t.Clone())
		}
	}
}

// checkAnswers compares the system's answers to the sampled requests with
// the oracle's over the given base tuples.
func checkAnswers(ctx context.Context, d *deployment, sample []*query, rel func(string) []value.Tuple) error {
	o := newOracle(rel)
	sess := d.svc.NewSession()
	defer sess.Close()
	for _, q := range sample {
		rows, err := fetch(ctx, sess, q)
		if err != nil {
			return fmt.Errorf("oracle: %s failed: %w", q.cq, err)
		}
		if err := o.check(q.cq, rows); err != nil {
			return err
		}
	}
	return nil
}

// procSnapshot reads the process counters the per-layer report compares
// before and after the window.
type procSnapshot struct {
	mem             runtime.MemStats
	gcCPU, totalCPU float64
}

func readProc() procSnapshot {
	var s procSnapshot
	runtime.ReadMemStats(&s.mem)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return s
}

// windowStats is what the untraced window leaves for the per-layer report.
type windowStats struct {
	before, after       procSnapshot
	svcBefore, svcAfter service.MetricsSnapshot
	reads               int64
}

// runWorkload performs one run of one workload.
func runWorkload(ctx context.Context, w *workloadDef, o runOpts) (*runResult, error) {
	clients := clientCount()
	res := &runResult{Workload: w.name, Seed: o.seed, Clients: clients, Seconds: o.window.Seconds(), Correct: true}
	problem := func(format string, args ...any) {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}

	// Set-up, several times when it is being measured.
	var d *deployment
	setups := make([]float64, o.setups)
	for i := range setups {
		d = nil
		runtime.GC()
		var took time.Duration
		var err error
		if d, took, err = setUp(ctx, w); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups[i] = took.Seconds()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapLive := float64(ms.HeapAlloc) / (1 << 20)

	// Inputs, all generated before any timing.
	nReaders := clients
	if w.writerMix != nil {
		nReaders = max(1, clients-1)
	}
	p := buildPlan(d, w, o.seed, nReaders)
	res.StreamHash = p.hash()

	check := p.sample(oracleSample, true)
	if err := checkAnswers(ctx, d, check, func(pred string) []value.Tuple { return d.base[pred] }); err != nil {
		problem("%v", err)
	}

	slab := int(o.window.Seconds()*slabPerSecond) + 1
	readers := make([]*reader, nReaders)
	for i := range readers {
		r := &reader{stream: p.streams[i], send: throughService(d.svc.NewSession()),
			lat: make([]int64, 0, slab), ttfr: make([]int64, 0, slab)}
		if w.cold {
			r.onWrap = func() error { return d.bumpEpoch(i) }
		}
		readers[i] = r
	}
	wslab := max(probeBatches, slab/10)
	wr := &writer{svc: d.svc, batches: p.writes, lat: make([]int64, 0, wslab), rows: make([]int64, 0, wslab)}
	var beside *writer
	if w.writerMix != nil {
		beside = wr
	}

	// Warm-up, then the measured window.
	window(ctx, p.queries, readers, beside, o.warmup, 1)
	for _, r := range readers {
		r.reset()
	}
	wr.lat, wr.rows, wr.attempted, wr.failed = wr.lat[:0], wr.rows[:0], 0, 0
	sub := o.window / subWindows
	ws := windowStats{before: readProc(), svcBefore: d.svc.Snapshot()}
	window(ctx, p.queries, readers, beside, sub, subWindows)
	ws.after, ws.svcAfter = readProc(), d.svc.Snapshot()

	// Writes alone, where no writer ran beside the readers.
	if beside == nil {
		// Start every probe from a collected heap, whatever garbage the
		// window's reads left behind.
		runtime.GC()
		wr.run(ctx, time.Time{}, probeBatches)
	}
	if err := wr.drain(ctx); err != nil {
		problem("%v", err)
	}
	if beside != nil {
		// The writer has stopped: what is stored must again answer like the
		// base relations it left behind.
		if err := checkAnswers(ctx, d, check, d.mt.BaseRows); err != nil {
			problem("after writes: %v", err)
		}
	}

	var misses int64
	for _, r := range readers {
		res.Attempted += r.attempted
		res.Failed += r.failed
		ws.reads += int64(len(r.lat))
		misses += r.misses
		if r.err != nil {
			problem("reader: %v", r.err)
		}
	}
	res.Attempted += wr.attempted
	res.Failed += wr.failed
	if wr.err != nil {
		problem("writer: %v", wr.err)
	}
	if w.cold && float64(misses) < 0.99*float64(ws.reads) {
		problem("cold workload: only %d of %d requests missed the rewriting cache", misses, ws.reads)
	}
	if ws.reads == 0 || len(wr.lat) < subWindows {
		problem("nothing completed: %d reads, %d write batches", ws.reads, len(wr.lat))
		return res, nil
	}

	if o.endToEnd {
		res.EndToEnd = endToEnd(readers, wr, sub.Seconds())
		res.EndToEnd["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups), Rule: "median of set-ups"}
		res.EndToEnd["heap_live_mb"] = metric{Value: heapLive, Unit: "MB", N: 1}
	}
	if o.traced {
		layers, shares, err := tracedRun(ctx, d, w, p, ws, o)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		res.PerLayer, res.Shares = layers, shares
	}
	return res, nil
}

// endToEnd turns the window's samples into the end-to-end metrics: rates
// and percentiles per sub-window, reported as the median over sub-windows.
func endToEnd(readers []*reader, wr *writer, subSeconds float64) map[string]metric {
	lat := make([][]int64, subWindows)
	ttfr := make([][]int64, subWindows)
	qps := make([]float64, subWindows)
	rps := make([]float64, subWindows)
	total := 0
	for k := 0; k < subWindows; k++ {
		var rows int64
		for _, r := range readers {
			lat[k] = append(lat[k], r.sub(r.lat, k)...)
			ttfr[k] = append(ttfr[k], r.sub(r.ttfr, k)...)
			rows += r.subRows[k]
		}
		total += len(lat[k])
		qps[k] = float64(len(lat[k])) / subSeconds
		rps[k] = float64(rows) / subSeconds
	}
	m := map[string]metric{
		"qps":        {Value: median(qps), Unit: "1/s", N: total, Rule: "median-of-sub-windows"},
		"rows_per_s": {Value: median(rps), Unit: "1/s", N: total, Rule: "median-of-sub-windows"},
	}
	for name, q := range map[string]struct {
		subs [][]int64
		p    float64
	}{"lat_p50_us": {lat, 0.50}, "lat_p99_us": {lat, 0.99}, "ttfr_p50_us": {ttfr, 0.50}} {
		v, n, rule := subWindowPercentile(q.subs, q.p)
		m[name] = metric{Value: v / 1e3, Unit: "us", N: n, Rule: rule}
	}

	// The writer's batches, in order, cut in as many equal parts: rows per
	// second of writer time and the percentiles, by the same rules.
	wlat := make([][]int64, subWindows)
	wrate := make([]float64, subWindows)
	for k := range wlat {
		lo, hi := k*len(wr.lat)/subWindows, (k+1)*len(wr.lat)/subWindows
		wlat[k] = wr.lat[lo:hi]
		var rows, ns int64
		for i := lo; i < hi; i++ {
			rows, ns = rows+wr.rows[i], ns+wr.lat[i]
		}
		wrate[k] = float64(rows) / (float64(ns) / 1e9)
	}
	m["write_rows_per_s"] = metric{Value: median(wrate), Unit: "1/s", N: len(wr.lat), Rule: "median-of-sub-windows"}
	for name, p := range map[string]float64{"write_p50_us": 0.50, "write_p95_us": 0.95} {
		v, n, rule := subWindowPercentile(wlat, p)
		m[name] = metric{Value: v / 1e3, Unit: "us", N: n, Rule: rule}
	}
	return m
}

// sortedNames returns a metric map's names in order, for printing.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
