package service

import (
	"time"

	"repro/internal/engines/engine"
	"repro/internal/obs"
)

// Query phases observed into the per-phase latency histogram. The
// breakdown telescopes the request: parse (surface text → CQ),
// canonicalize (fingerprinting), rewrite (cache lookup or PACB search),
// bind (plan bind + open, including retries), execute (open → first
// row), drain (first row → close). A text query served by the shape
// cache records its scan, lookup and argument build as parse and 0 as
// canonicalize.
const (
	phaseParse = iota
	phaseCanonicalize
	phaseRewrite
	phaseBind
	phaseExecute
	phaseDrain
	numPhases
)

var phaseNames = [numPhases]string{
	"parse", "canonicalize", "rewrite", "bind", "execute", "drain",
}

// fingerprintSeriesCap bounds the per-fingerprint histogram cardinality;
// workloads with more distinct shapes collapse the tail into "_other".
const fingerprintSeriesCap = 512

// svcObs holds the service's resolved instruments. The hot path touches
// only pre-resolved histogram pointers (atomic adds); everything the
// service already counts elsewhere — metrics atomics, breaker table,
// store counters, fault tallies, epochs — is exported through func-backed
// collector families read at scrape time, so there is no double
// bookkeeping and a nil svcObs (no Registry configured) costs nothing.
type svcObs struct {
	reg   *obs.Registry
	phase [numPhases]*obs.Histogram
	query *obs.Histogram
	fp    *obs.HistogramVec
}

// newSvcObs registers the service's metric families and collectors.
func newSvcObs(reg *obs.Registry, s *Service) *svcObs {
	o := &svcObs{reg: reg}

	phaseVec := reg.NewHistogram("estocada_query_phase_seconds",
		"Per-phase query latency (parse, canonicalize, rewrite, bind, execute, drain).", "phase")
	for i, name := range phaseNames {
		o.phase[i] = phaseVec.With(name)
	}
	o.query = reg.NewHistogram("estocada_query_seconds",
		"End-to-end query latency, parse to cursor close.").With()
	o.fp = reg.NewHistogram("estocada_query_fingerprint_seconds",
		"End-to-end query latency per canonical fingerprint (capped cardinality).", "fingerprint")
	o.fp.SetMaxSeries(fingerprintSeriesCap)

	// Service-level events: read straight off the metrics atomics.
	m := &s.metrics
	reg.CounterFunc("estocada_queries_total",
		"Queries admitted into the service (all surfaces).", nil,
		func(emit func([]string, float64)) { emit(nil, float64(m.queries.Load())) })
	reg.CounterFunc("estocada_cache_events_total",
		"Rewriting-cache outcomes per query.", []string{"event"},
		func(emit func([]string, float64)) {
			emit([]string{"hit"}, float64(m.hits.Load()))
			emit([]string{"coalesced"}, float64(m.coalesced.Load()))
			emit([]string{"miss"}, float64(m.misses.Load()))
		})
	reg.CounterFunc("estocada_shape_cache_events_total",
		"Text-query shape-cache outcomes: hit (parse and canonicalize skipped), miss (parsed, shape learned), decline (parsed, shape not cacheable).", []string{"event"},
		func(emit func([]string, float64)) {
			emit([]string{"hit"}, float64(m.shapeHits.Load()))
			emit([]string{"miss"}, float64(m.shapeMisses.Load()))
			emit([]string{"decline"}, float64(m.shapeDeclines.Load()))
		})
	reg.CounterFunc("estocada_query_failures_total",
		"Failed queries by kind (timeouts are also counted as errors).", []string{"kind"},
		func(emit func([]string, float64)) {
			emit([]string{"error"}, float64(m.errors.Load()))
			emit([]string{"timeout"}, float64(m.timeouts.Load()))
		})
	reg.CounterFunc("estocada_retries_total",
		"Execution retries after transient store faults.", nil,
		func(emit func([]string, float64)) { emit(nil, float64(m.retries.Load())) })
	reg.CounterFunc("estocada_breaker_fast_fails_total",
		"Queries failed fast on an open circuit breaker.", nil,
		func(emit func([]string, float64)) { emit(nil, float64(m.breakerFastFails.Load())) })
	reg.CounterFunc("estocada_rows_served_total",
		"Result rows delivered to clients.", nil,
		func(emit func([]string, float64)) { emit(nil, float64(m.rowsServed.Load())) })
	reg.CounterFunc("estocada_writes_total",
		"Write batches admitted.", nil,
		func(emit func([]string, float64)) { emit(nil, float64(m.writes.Load())) })
	reg.CounterFunc("estocada_rows_written_total",
		"Base rows inserted plus deleted.", nil,
		func(emit func([]string, float64)) { emit(nil, float64(m.rowsWritten.Load())) })
	reg.GaugeFunc("estocada_in_flight",
		"Queries currently executing (open cursors included).", nil,
		func(emit func([]string, float64)) { emit(nil, float64(m.inFlight.Load())) })
	reg.GaugeFunc("estocada_cache_entries",
		"Rewriting-cache entries resident.", nil,
		func(emit func([]string, float64)) { emit(nil, float64(s.cache.len())) })
	reg.GaugeFunc("estocada_shape_cache_entries",
		"Text-query shapes resident in the shape cache.", nil,
		func(emit func([]string, float64)) { emit(nil, float64(s.shapes.len())) })
	reg.GaugeFunc("estocada_sessions",
		"Registered sessions.", nil,
		func(emit func([]string, float64)) {
			s.sessMu.Lock()
			n := len(s.sessions)
			s.sessMu.Unlock()
			emit(nil, float64(n))
		})
	reg.GaugeFunc("estocada_statements",
		"Registered prepared statements.", nil,
		func(emit func([]string, float64)) {
			s.stmtMu.Lock()
			n := len(s.stmts)
			s.stmtMu.Unlock()
			emit(nil, float64(n))
		})

	// Degradation plane: breaker states and fault-injector tallies. Every
	// store gets a series even while healthy (Breakers() only lists stores
	// with recorded failures — absent means closed).
	engines := s.sys.Stores.All()
	reg.GaugeFunc("estocada_breaker_open",
		"1 while the store's circuit breaker fails queries fast.", []string{"store"},
		func(emit func([]string, float64)) {
			brk := s.Breakers()
			for _, e := range engines {
				v := 0.0
				if brk[e.Name()].Open {
					v = 1
				}
				emit([]string{e.Name()}, v)
			}
		})
	reg.GaugeFunc("estocada_breaker_failures",
		"Consecutive attributed failures (saturates at the threshold).", []string{"store"},
		func(emit func([]string, float64)) {
			brk := s.Breakers()
			for _, e := range engines {
				emit([]string{e.Name()}, float64(brk[e.Name()].ConsecutiveFailures))
			}
		})
	reg.CounterFunc("estocada_breaker_trips_total",
		"Distinct breaker open transitions.", []string{"store"},
		func(emit func([]string, float64)) {
			brk := s.Breakers()
			for _, e := range engines {
				emit([]string{e.Name()}, float64(brk[e.Name()].Trips))
			}
		})

	// Per-store plane: operation counters, fault injections, and the
	// latency histograms the stores own (attached, not copied).
	reg.CounterFunc("estocada_store_ops_total",
		"Store operations by kind (requests, scans, lookups, tuples).", []string{"store", "op"},
		func(emit func([]string, float64)) {
			for _, e := range engines {
				c := e.Counters().Snapshot()
				name := e.Name()
				emit([]string{name, "requests"}, float64(c.Requests))
				emit([]string{name, "scans"}, float64(c.Scans))
				emit([]string{name, "lookups"}, float64(c.Lookups))
				emit([]string{name, "tuples"}, float64(c.Tuples))
			}
		})
	reg.CounterFunc("estocada_fault_injected_total",
		"Faults the per-store injectors fired.", []string{"store", "kind"},
		func(emit func([]string, float64)) {
			for _, e := range engines {
				snap := e.Fault().Snapshot()
				emit([]string{e.Name(), "read"}, float64(snap.InjectedReads))
				emit([]string{e.Name(), "write"}, float64(snap.InjectedWrites))
			}
		})
	storeHist := reg.NewHistogram("estocada_store_latency_seconds",
		"Per-request store access latency, measured around each delegated access.", "store")
	for _, e := range engines {
		storeHist.Attach(e.LatencyHistogram(), e.Name())
	}

	// Planner plane: drift-triggered lazy re-plans and the cost-based
	// plan-choice latency histogram (owned by core, attached here).
	reg.CounterFunc("estocada_replans_total",
		"Lazy re-plans triggered by data-epoch cardinality drift.", nil,
		func(emit func([]string, float64)) { emit(nil, float64(s.sys.Replans())) })
	reg.NewHistogram("estocada_plan_seconds",
		"Cost-based plan choice latency (cold misses, prepares, re-plans).").
		Attach(s.sys.PlanSeconds())

	// Epochs: catalog generation (plan invalidation) vs data generation.
	reg.GaugeFunc("estocada_catalog_epoch",
		"Catalog generation; cached plans older than it re-prepare.", nil,
		func(emit func([]string, float64)) { emit(nil, float64(s.sys.CacheEpoch())) })
	reg.GaugeFunc("estocada_data_epoch",
		"Data generation; advances on DML and fragment reloads.", nil,
		func(emit func([]string, float64)) { emit(nil, float64(s.sys.DataEpoch())) })

	return o
}

// observe records one finished query's phase breakdown and total latency.
// Called from Rows.Close on the nil-checked fast path; every observation
// is an atomic add into a pre-resolved histogram.
func (o *svcObs) observe(r *Rows, total time.Duration) {
	if r.parseTime > 0 {
		o.phase[phaseParse].Observe(r.parseTime)
	}
	o.phase[phaseCanonicalize].Observe(r.canonTime)
	o.phase[phaseRewrite].Observe(r.planTime)
	o.phase[phaseBind].Observe(r.bindTime)
	execute, drain := r.splitExec()
	o.phase[phaseExecute].Observe(execute)
	o.phase[phaseDrain].Observe(drain)
	o.query.Observe(total)
	o.fp.Get1(r.fingerprint).Observe(total)
}

// Registry returns the metrics registry the service exports into (nil
// when Options.Registry was not configured).
func (s *Service) Registry() *obs.Registry {
	if s.obs == nil {
		return nil
	}
	return s.obs.reg
}

// Stats is the consistent introspection snapshot behind /stats: the
// service metrics, every store's operation counters, the circuit-breaker
// table, and the two epochs, all read in one call instead of piecemeal.
//
// Shape (JSON):
//
//	{
//	  "service":  {"queries":…, "cacheHits":…, "coalesced":…, "cacheMisses":…,
//	               "errors":…, "timeouts":…, "inFlight":…, "rowsServed":…,
//	               "writes":…, "rowsWritten":…, "retries":…, "breakerFastFails":…,
//	               "shapeHits":…, "shapeMisses":…, "shapeDeclines":…,
//	               "cacheEntries":…, "shapeEntries":…, "sessions":…, "statements":…},
//	  "stores":   {"<store>": {"requests":…, "scans":…, "lookups":…, "tuples":…}, …},
//	  "breakers": {"<store>": {"consecutiveFailures":…, "open":…, "trips":…}, …},
//	  "catalogEpoch": …,
//	  "dataEpoch": …
//	}
//
// The counters are individually atomic but the snapshot is not a single
// transaction: a query finishing concurrently may appear in some counters
// and not others. Within one store's CounterSnapshot the same holds — see
// the torn-read note on engine.Counters.Snapshot.
type Stats struct {
	Service      MetricsSnapshot                   `json:"service"`
	Stores       map[string]engine.CounterSnapshot `json:"stores"`
	Breakers     map[string]BreakerState           `json:"breakers"`
	CatalogEpoch uint64                            `json:"catalogEpoch"`
	DataEpoch    uint64                            `json:"dataEpoch"`
}

// Stats takes the consistent introspection snapshot.
func (s *Service) Stats() Stats {
	stores := map[string]engine.CounterSnapshot{}
	for _, e := range s.sys.Stores.All() {
		stores[e.Name()] = e.Counters().Snapshot()
	}
	return Stats{
		Service:      s.Snapshot(),
		Stores:       stores,
		Breakers:     s.Breakers(),
		CatalogEpoch: s.sys.CacheEpoch(),
		DataEpoch:    s.sys.DataEpoch(),
	}
}
