package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engines/engine"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/pivot"
	"repro/internal/value"
	"repro/internal/workload"
)

// Options tunes the mediator service.
type Options struct {
	// MaxInFlight bounds concurrently executing queries (admission
	// control). Queries beyond the bound wait for a slot (or their
	// context). 0 = 4×GOMAXPROCS.
	MaxInFlight int
	// QueryTimeout caps one query end to end: admission waits, coalesced
	// waits on another caller's rewrite, and execution (checked once per
	// drained batch). A cold rewrite this query LEADS runs to completion
	// regardless — its result serves the coalesced waiters — but the
	// leader's admission wait before the rewrite is bounded. 0 = none.
	QueryTimeout time.Duration
	// CacheShards is the rewriting-cache shard count. 0 = 16.
	CacheShards int
	// Schema maps logical relation names to column names for the surface
	// languages (QueryText). Nil disables text queries.
	Schema lang.Schema
	// MaxResultRows caps the rows any one query may deliver (0 = no cap).
	// A materializing Query that would exceed it fails with
	// ErrResultTruncated instead of buffering without bound; a cursor
	// delivers exactly the cap and then surfaces ErrResultTruncated
	// in-band if more rows existed.
	MaxResultRows int
	// RetryAttempts is how many times a query whose execution failed at
	// open time with a transient store fault is retried before surfacing
	// ErrStoreUnavailable. 0 = 2; negative = no retries.
	RetryAttempts int
	// RetryBackoff is the backoff before the first retry, doubled per
	// attempt and capped at 16×. 0 = 2ms.
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive attributed failures after which
	// a store's circuit breaker opens (queries touching the store fail
	// fast with ErrStoreUnavailable). 0 = 5; negative disables breaking.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// half-opening for a trial query. 0 = 500ms.
	BreakerCooldown time.Duration
	// Registry, when set, exports the service's metrics: per-phase and
	// per-fingerprint latency histograms, service event counters, breaker
	// gauges, per-store operation counters and latency histograms, fault
	// tallies, and the catalog/data epochs. Nil disables exposition; the
	// query path then records nothing.
	Registry *obs.Registry
	// SlowQueryThreshold retains queries at least this slow in the
	// slow-query log (failed queries are always retained). 0 = only
	// failures are logged.
	SlowQueryThreshold time.Duration
	// SlowQueryLog is the slow-query ring size. 0 = 128; negative
	// disables the log entirely.
	SlowQueryLog int
}

// Service is a concurrent mediator runtime over one core.System. All
// methods are safe for concurrent use.
type Service struct {
	sys   *core.System
	opts  Options
	cache *planCache
	// shapes sends text queries of a known shape past the parsers.
	shapes *shapeCache
	sem    chan struct{}

	// prepare runs the cold path (PACB rewriting via core.Prepare).
	// Overridable in tests to count or stub rewrites.
	prepare func(q pivot.CQ, params ...pivot.Var) (*core.Prepared, error)

	// brk is the per-store circuit-breaker table of the degradation layer.
	brk *breakers

	// obs holds the resolved metric instruments (nil without a Registry);
	// slow is the slow-query ring (nil when disabled).
	obs  *svcObs
	slow *slowLog

	// workload is the always-on per-fingerprint accounting layer feeding
	// the self-tuning loop (advisor.FromWorkload, /debug/workload).
	workload *workload.Accountant

	metrics Metrics

	sessMu     sync.Mutex
	sessions   map[uint64]*Session
	nextSessID atomic.Uint64

	stmtMu     sync.Mutex
	stmts      map[uint64]*Stmt
	nextStmtID atomic.Uint64
}

// Metrics counts service-level events. All fields are atomics; read them
// through Snapshot.
type Metrics struct {
	queries     atomic.Int64 // queries admitted into Query/QueryText
	hits        atomic.Int64 // served from a ready cache entry
	coalesced   atomic.Int64 // waited on another caller's in-flight rewrite
	misses      atomic.Int64 // ran the rewrite (single-flight leaders)
	errors      atomic.Int64 // failed queries (any stage)
	timeouts    atomic.Int64 // failures due to context deadline/cancel
	inFlight    atomic.Int64 // currently executing (post-admission) gauge
	rowsServed  atomic.Int64 // total result rows returned
	writes      atomic.Int64 // write batches admitted into WriteBatch
	rowsWritten atomic.Int64 // total base rows inserted + deleted

	retries          atomic.Int64 // execution retries after transient store faults
	breakerFastFails atomic.Int64 // queries failed fast on an open breaker

	shapeHits     atomic.Int64 // text queries served from the shape cache
	shapeMisses   atomic.Int64 // text queries parsed whose shape was then learned
	shapeDeclines atomic.Int64 // text queries parsed whose shape was not learned
}

// MetricsSnapshot is a point-in-time copy of the service metrics.
type MetricsSnapshot struct {
	Queries          int64 `json:"queries"`
	CacheHits        int64 `json:"cacheHits"`
	Coalesced        int64 `json:"coalesced"`
	CacheMisses      int64 `json:"cacheMisses"`
	Errors           int64 `json:"errors"`
	Timeouts         int64 `json:"timeouts"`
	InFlight         int64 `json:"inFlight"`
	RowsServed       int64 `json:"rowsServed"`
	Writes           int64 `json:"writes"`
	RowsWritten      int64 `json:"rowsWritten"`
	Retries          int64 `json:"retries"`
	BreakerFastFails int64 `json:"breakerFastFails"`
	ShapeHits        int64 `json:"shapeHits"`
	ShapeMisses      int64 `json:"shapeMisses"`
	ShapeDeclines    int64 `json:"shapeDeclines"`
	CacheEntries     int   `json:"cacheEntries"`
	ShapeEntries     int   `json:"shapeEntries"`
	Sessions         int   `json:"sessions"`
	Statements       int   `json:"statements"`
}

// New builds a service over a deployed system.
func New(sys *core.System, opts Options) *Service {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if opts.CacheShards <= 0 {
		opts.CacheShards = 16
	}
	switch {
	case opts.RetryAttempts == 0:
		opts.RetryAttempts = 2
	case opts.RetryAttempts < 0:
		opts.RetryAttempts = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 2 * time.Millisecond
	}
	switch {
	case opts.BreakerThreshold == 0:
		opts.BreakerThreshold = 5
	case opts.BreakerThreshold < 0:
		opts.BreakerThreshold = 0
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 500 * time.Millisecond
	}
	s := &Service{
		sys:      sys,
		opts:     opts,
		cache:    newPlanCache(opts.CacheShards),
		shapes:   newShapeCache(),
		sem:      make(chan struct{}, opts.MaxInFlight),
		sessions: map[uint64]*Session{},
		stmts:    map[uint64]*Stmt{},
		brk:      newBreakers(opts.BreakerThreshold, opts.BreakerCooldown),
	}
	s.prepare = sys.Prepare
	if opts.SlowQueryLog >= 0 {
		n := opts.SlowQueryLog
		if n == 0 {
			n = 128
		}
		s.slow = newSlowLog(n)
	}
	if opts.Registry != nil {
		s.obs = newSvcObs(opts.Registry, s)
	}
	s.workload = workload.New(workload.Options{
		MaxFingerprints: fingerprintSeriesCap,
		Catalog:         sys.Catalog,
		Stores:          sys.Stores,
		Schema:          sys.SchemaConstraints,
		Registry:        opts.Registry,
	})
	return s
}

// System returns the underlying mediator core.
func (s *Service) System() *core.System { return s.sys }

// Workload returns the always-on workload accountant (never nil): the
// per-fingerprint observations the advisor's FromWorkload consumes.
func (s *Service) Workload() *workload.Accountant { return s.workload }

// Snapshot reads the service metrics.
func (s *Service) Snapshot() MetricsSnapshot {
	s.sessMu.Lock()
	nSess := len(s.sessions)
	s.sessMu.Unlock()
	s.stmtMu.Lock()
	nStmt := len(s.stmts)
	s.stmtMu.Unlock()
	return MetricsSnapshot{
		Queries:          s.metrics.queries.Load(),
		CacheHits:        s.metrics.hits.Load(),
		Coalesced:        s.metrics.coalesced.Load(),
		CacheMisses:      s.metrics.misses.Load(),
		Errors:           s.metrics.errors.Load(),
		Timeouts:         s.metrics.timeouts.Load(),
		InFlight:         s.metrics.inFlight.Load(),
		RowsServed:       s.metrics.rowsServed.Load(),
		Writes:           s.metrics.writes.Load(),
		RowsWritten:      s.metrics.rowsWritten.Load(),
		Retries:          s.metrics.retries.Load(),
		BreakerFastFails: s.metrics.breakerFastFails.Load(),
		ShapeHits:        s.metrics.shapeHits.Load(),
		ShapeMisses:      s.metrics.shapeMisses.Load(),
		ShapeDeclines:    s.metrics.shapeDeclines.Load(),
		CacheEntries:     s.cache.len(),
		ShapeEntries:     s.shapes.len(),
		Sessions:         nSess,
		Statements:       nStmt,
	}
}

// Result is one answered query.
type Result struct {
	Rows []value.Tuple
	// Fingerprint is the canonical cache key the query normalized to.
	Fingerprint string
	// CacheHit: the rewriting came from a ready cache entry. Coalesced:
	// this query waited on a concurrent caller's rewrite of the same
	// fingerprint. Neither: this query ran the rewrite (cold miss).
	CacheHit  bool
	Coalesced bool
	// PlanTime covers fingerprinting plus the cache/rewrite stage;
	// ExecTime covers admission plus execution.
	PlanTime time.Duration
	ExecTime time.Duration
	// PerStore is the exact work each store performed for THIS query
	// (per-execution attribution; stores the query never touched are
	// absent).
	PerStore map[string]engine.CounterSnapshot
}

// Query answers a conjunctive query through the shared rewriting cache
// and the admission layer, materializing the full result. It is a thin
// wrapper over QueryRows; callers that can consume incrementally should
// use the cursor directly.
func (s *Service) Query(ctx context.Context, q pivot.CQ) (*Result, error) {
	r, err := s.QueryRows(ctx, q)
	if err != nil {
		return nil, err
	}
	return r.Materialize()
}

// QueryRows answers a conjunctive query as a streaming cursor. The
// returned Rows holds the query's admission slot and timeout context
// until Close; nothing materializes the result on the way out.
func (s *Service) QueryRows(ctx context.Context, q pivot.CQ) (*Rows, error) {
	s.metrics.queries.Add(1)
	return s.canonOpen(ctx, nil, q, 0)
}

// canonOpen canonicalizes (timing the phase) and opens the cursor.
// parse is the already-spent surface-parse time (0 for the CQ value
// surface). The caller has counted metrics.queries.
func (s *Service) canonOpen(ctx context.Context, sess *Session, q pivot.CQ, parse time.Duration) (*Rows, error) {
	t0 := time.Now()
	fp, err := Canonicalize(q)
	if err != nil {
		s.countFailure(ctx, err, sess)
		return nil, err
	}
	return s.openRows(ctx, sess, fp, fp.Args, parse, time.Since(t0))
}

// QueryText parses a surface-language query (lang "sql", "flwor" or
// "cq") against the configured schema and answers it (materialized).
func (s *Service) QueryText(ctx context.Context, language, text string) (*Result, error) {
	r, err := s.QueryTextRows(ctx, language, text)
	if err != nil {
		return nil, err
	}
	return r.Materialize()
}

// QueryTextRows is QueryText's cursor-returning variant. A text whose
// shape the service has seen before skips parsing and canonicalization
// (see shapes.go).
func (s *Service) QueryTextRows(ctx context.Context, language, text string) (*Rows, error) {
	return s.queryText(ctx, nil, language, text)
}

// queryText is the one entry point of text queries, with or without a
// session: the shape cache or the parsers give the fingerprint, then the
// shared pipeline opens the cursor. A text that fails to parse is not
// counted as a query.
func (s *Service) queryText(ctx context.Context, sess *Session, language, text string) (*Rows, error) {
	fp, args, parse, canon, err := s.textFingerprint(language, text)
	if err != nil {
		return nil, err
	}
	if sess != nil {
		sess.queries.Add(1)
		sess.lastUse.Store(time.Now().UnixNano())
	}
	s.metrics.queries.Add(1)
	return s.openRows(ctx, sess, fp, args, parse, canon)
}

// parseText parses one of the surface languages into a conjunctive
// query, wrapping failures in the typed sentinel errors front ends map
// to status codes.
func (s *Service) parseText(language, text string) (pivot.CQ, error) {
	var q pivot.CQ
	var err error
	switch language {
	case "sql":
		if s.opts.Schema == nil {
			return pivot.CQ{}, ErrNoSchema
		}
		q, err = lang.ParseSQL(text, s.opts.Schema)
	case "flwor":
		if s.opts.Schema == nil {
			return pivot.CQ{}, ErrNoSchema
		}
		q, err = lang.ParseFLWOR(text, s.opts.Schema)
	case "cq", "":
		q, err = lang.ParseCQ(text)
	default:
		return pivot.CQ{}, fmt.Errorf("%w: %q", ErrUnknownLanguage, language)
	}
	if err != nil {
		return pivot.CQ{}, fmt.Errorf("%w: %w", ErrParse, err)
	}
	return q, nil
}

// countFailure records a failed query in the service (and optional
// session) metrics. outer is the caller's context, consulted to classify
// timeouts.
func (s *Service) countFailure(outer context.Context, err error, sess *Session) {
	s.metrics.errors.Add(1)
	if outer.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.metrics.timeouts.Add(1)
	}
	if sess != nil {
		sess.errors.Add(1)
	}
}

// leaderPrepare returns the cold-path rewrite callback for one
// fingerprint: the leader's PACB search runs inside an admission slot,
// so a burst of distinct cold fingerprints cannot run unbounded
// concurrent backchases.
func (s *Service) leaderPrepare(ctx context.Context, fp Fingerprint) func() (*core.Prepared, error) {
	return func() (*core.Prepared, error) {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-s.sem }()
		return s.prepare(fp.Query, fp.Params...)
	}
}

// openRows runs the shared pipeline behind every query and Execute call
// — timeout context, single-flight rewrite cache, admission — and
// returns the open cursor. The admission slot and the timeout context
// transfer to the cursor and are released at Close, so the semaphore
// bounds live executions, not merely the synchronous part of a call.
// The caller has already counted metrics.queries; parse and canon are
// the durations of the phases that ran before this call (observed, with
// the phases measured here, when the cursor closes).
func (s *Service) openRows(ctx context.Context, sess *Session, fp Fingerprint, args []value.Value, parse, canon time.Duration) (*Rows, error) {
	base := ctx
	var cancel context.CancelFunc
	if s.opts.QueryTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.opts.QueryTimeout)
	}
	fail := func(err error) error {
		if cancel != nil {
			cancel()
		}
		s.countFailure(base, err, sess)
		return err
	}
	start := time.Now()

	// Rewrite stage: shared cache, single-flight on cold misses, epoch
	// validation against the catalog generation.
	epoch := s.sys.CacheEpoch()
	prep, outcome, err := s.cache.get(ctx, fp.Key, epoch, s.leaderPrepare(ctx, fp))
	if outcome == outcomeMiss {
		s.metrics.misses.Add(1)
	}
	if err != nil {
		// Hits/coalesced waits that surface a cached error are counted as
		// errors, not as cache hits — a poisoned entry must not read as a
		// healthy cache in /stats.
		return nil, fail(err)
	}
	switch outcome {
	case outcomeHit:
		s.metrics.hits.Add(1)
		if sess != nil {
			sess.hits.Add(1)
		}
	case outcomeCoalesced:
		s.metrics.coalesced.Add(1)
	}
	planTime := time.Since(start)

	// Admission: bounded live executions. The slot is released by
	// Rows.Close, not here.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fail(ctx.Err())
	}
	s.metrics.inFlight.Add(1)
	execStart := time.Now()
	cur, err := s.execWithRetry(ctx, prep, args)
	if err != nil {
		s.metrics.inFlight.Add(-1)
		<-s.sem
		return nil, fail(err)
	}
	return &Rows{
		svc:         s,
		sess:        sess,
		cur:         cur,
		base:        base,
		cancel:      cancel,
		fp:          fp,
		fingerprint: fp.Key,
		cacheHit:    outcome == outcomeHit,
		coalesced:   outcome == outcomeCoalesced,
		openedAt:    start,
		parseTime:   parse,
		canonTime:   canon,
		planTime:    planTime,
		bindTime:    time.Since(execStart),
		execStart:   execStart,
		width:       fp.Query.Head.Arity(),
		outWidth:    fp.OutWidth,
		limit:       int64(s.opts.MaxResultRows),
	}, nil
}
