// Package core assembles ESTOCADA (paper Fig. 1): the Storage Descriptor
// Manager (catalog), the Query Evaluator (PACB rewriting + cost-based plan
// choice), and the Runtime Execution Engine, over a set of registered
// storage substrates. Applications register datasets' schema constraints
// and fragments (materialized views placed in specific stores), then pose
// conjunctive queries against the logical schema; ESTOCADA answers them
// from the fragments alone, reporting the rewriting, the plan, and the
// per-store performance split.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/engines/docstore"
	"repro/internal/engines/engine"
	"repro/internal/engines/kvstore"
	"repro/internal/engines/parstore"
	"repro/internal/engines/relstore"
	"repro/internal/engines/textstore"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/value"
)

// ErrNoPlan is returned when no equivalent feasible rewriting exists over
// the registered fragments.
var ErrNoPlan = errors.New("estocada: no equivalent feasible rewriting over the registered fragments")

// Options tunes the system.
type Options struct {
	// DisableDelegation forces all joins into the mediator (ablation).
	DisableDelegation bool
	// FixedOrderPlanner disables greedy cost-based clause ordering and
	// falls back to the first access-pattern-feasible body order with
	// heuristic operator choices (ablation baseline for the cost model).
	FixedOrderPlanner bool
}

// System is one ESTOCADA instance.
type System struct {
	Catalog *catalog.Catalog
	Stores  *translate.Stores
	planner *translate.Planner

	mu     sync.Mutex
	schema pivot.Constraints

	// epoch counts catalog generations: every fragment registration/drop,
	// constraint merge, or statistics refresh through Materialize bumps
	// it. Plan caches outside the system (the service layer's shared
	// rewriting cache) validate entries against the epoch they were
	// created under, instead of being flushed wholesale.
	//
	// dataEpoch counts data generations: DML through the maintenance
	// layer (ApplyFragmentDelta, ReloadFragment) bumps it WITHOUT
	// touching the catalog epoch — a write changes what fragments
	// contain, never which plan shapes are valid, so prepared statements
	// and cached rewritings stay warm across writes. Consumers that cache
	// data (not plans) invalidate on dataEpoch.
	epoch     atomic.Uint64
	dataEpoch atomic.Uint64

	// replans counts lazy drift-triggered re-plans of prepared statements;
	// planHist records every cost-based plan choice latency (Prepare
	// costing and re-plans). Both are exported to /metrics by the service
	// layer.
	replans  atomic.Uint64
	planHist obs.Histogram

	// dml is the attached write front door (the maintain.Maintainer);
	// InsertInto/DeleteFrom delegate to it. Guarded by mu.
	dml DML
}

// New creates an empty system.
func New(opts Options) *System {
	cat := catalog.New()
	stores := translate.NewStores()
	sys := &System{
		Catalog: cat,
		Stores:  stores,
		planner: &translate.Planner{
			Catalog:           cat,
			Stores:            stores,
			DisableDelegation: opts.DisableDelegation,
			FixedOrder:        opts.FixedOrderPlanner,
		},
	}
	sys.planner.DataEpoch = sys.DataEpoch
	return sys
}

// Replans returns the number of drift-triggered lazy re-plans so far.
func (s *System) Replans() uint64 { return s.replans.Load() }

// PlanSeconds returns the histogram of cost-based plan-choice latencies.
func (s *System) PlanSeconds() *obs.Histogram { return &s.planHist }

// maxDriftRatio is the row-count ratio, in either direction, past which a
// prepared statement's plan is re-chosen (see Prepared.maybeReplan).
const maxDriftRatio = 2.0

// rowsDrifted reports whether any fragment's current row count has moved
// past maxDriftRatio relative to the plan-time snapshot. Counts are
// +1-smoothed so empty fragments growing from zero register as drift.
func (s *System) rowsDrifted(planRows map[string]int64) bool {
	if len(planRows) == 0 {
		return false
	}
	names := make([]string, 0, len(planRows))
	for n := range planRows {
		names = append(names, n)
	}
	cur := s.Catalog.RowsSnapshot(names)
	for n, then := range planRows {
		now, ok := cur[n]
		if !ok {
			continue
		}
		ratio := float64(now+1) / float64(then+1)
		if ratio > maxDriftRatio || ratio*maxDriftRatio < 1 {
			return true
		}
	}
	return false
}

// fragmentRowsOf snapshots the row counts of every fragment referenced by
// the rewritings' bodies (deduplicated).
func (s *System) fragmentRowsOf(rewritings []pivot.CQ) map[string]int64 {
	seen := map[string]bool{}
	var names []string
	for _, r := range rewritings {
		for _, a := range r.Body {
			if !seen[a.Pred] {
				seen[a.Pred] = true
				names = append(names, a.Pred)
			}
		}
	}
	return s.Catalog.RowsSnapshot(names)
}

// AddRelStore creates and registers a relational store.
func (s *System) AddRelStore(name string) *relstore.Store {
	st := relstore.New(name)
	s.Stores.AddRel(st)
	return st
}

// AddKVStore creates and registers a key-value store.
func (s *System) AddKVStore(name string) *kvstore.Store {
	st := kvstore.New(name)
	s.Stores.AddKV(st)
	return st
}

// AddDocStore creates and registers a document store.
func (s *System) AddDocStore(name string) *docstore.Store {
	st := docstore.New(name)
	s.Stores.AddDoc(st)
	return st
}

// AddTextStore creates and registers a full-text store.
func (s *System) AddTextStore(name string) *textstore.Store {
	st := textstore.New(name)
	s.Stores.AddText(st)
	return st
}

// AddParStore creates and registers a parallel store with the given
// partition count.
func (s *System) AddParStore(name string, partitions int) *parstore.Store {
	st := parstore.New(name, partitions)
	s.Stores.AddPar(st)
	return st
}

// AddConstraints registers source-schema constraints (data-model encodings,
// keys, inclusions) used during rewriting.
func (s *System) AddConstraints(cs pivot.Constraints) {
	s.mu.Lock()
	s.schema = s.schema.Merge(cs)
	s.mu.Unlock()
	// Mutate, then bump: a concurrent cold miss that reads the new epoch
	// must also see the merged schema, or its cached rewriting would be
	// stale yet tagged fresh.
	s.epoch.Add(1)
}

// SchemaConstraints returns the registered constraints.
func (s *System) SchemaConstraints() pivot.Constraints {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schema
}

// RegisterFragment binds the fragment to its container in its target
// store and records its storage descriptor. A store that is not
// registered, or that does not hold the layout's kind, is refused before
// the catalog changes (translate.ErrUnknownStore,
// translate.ErrLayoutMismatch).
func (s *System) RegisterFragment(f *catalog.Fragment) error {
	if _, err := s.Stores.Container(f); err != nil {
		return fmt.Errorf("estocada: %w", err)
	}
	if err := s.Catalog.Register(f); err != nil {
		return err
	}
	s.bumpCatalogEpoch()
	return nil
}

// DropFragment removes a fragment's descriptor and its physical container.
func (s *System) DropFragment(name string) error {
	_, c, err := s.container(name)
	if err != nil {
		return err
	}
	if err := s.Catalog.Drop(name); err != nil {
		return err
	}
	s.bumpCatalogEpoch()
	return c.Drop()
}

// container resolves a registered fragment and its container.
func (s *System) container(name string) (*catalog.Fragment, *translate.Container, error) {
	f, ok := s.Catalog.Get(name)
	if !ok {
		return nil, nil, fmt.Errorf("estocada: no fragment %q", name)
	}
	c, err := s.Stores.Container(f)
	if err != nil {
		return nil, nil, fmt.Errorf("estocada: %w", err)
	}
	return f, c, nil
}

// bumpCatalogEpoch marks a catalog change. Mutate-then-bump, as in
// AddConstraints: callers change the catalog first, so readers of the new
// epoch see the new state.
func (s *System) bumpCatalogEpoch() { s.epoch.Add(1) }

// CacheEpoch returns the current catalog generation. Cached plans and
// rewritings derived under an older epoch are stale.
func (s *System) CacheEpoch() uint64 { return s.epoch.Load() }

// Materialize creates the fragment's physical container in its store (if
// needed) and loads the given view tuples, then records fresh statistics.
// The rows must match the fragment view's head arity.
func (s *System) Materialize(name string, rows []value.Tuple) error {
	f, c, err := s.container(name)
	if err != nil {
		return err
	}
	if err := checkArity(f, rows); err != nil {
		return err
	}
	if err := c.Ensure(); err != nil {
		return err
	}
	if err := c.Apply(rows, nil); err != nil {
		return err
	}
	if err := s.Catalog.SetStats(name, stats.Collect(rows)); err != nil {
		return err
	}
	// Fresh statistics can change the cost-based plan choice.
	s.bumpCatalogEpoch()
	return nil
}

// Report describes how a query was answered — what the demo shows in steps
// 2 and 3 (paper §IV).
type Report struct {
	// Rewriting is the chosen view-level rewriting.
	Rewriting pivot.CQ
	// PlanExplain is the executed physical plan, rendered.
	PlanExplain string
	// RewriteStats reports the PACB search effort.
	RewriteStats rewrite.Stats
	// Alternatives is the number of rewritings considered.
	Alternatives int
	// PlanningTime and ExecTime split the latency.
	PlanningTime time.Duration
	ExecTime     time.Duration
	// PerStore is the work each store performed for this query.
	PerStore map[string]engine.CounterSnapshot
	// Profile is the per-operator EXPLAIN ANALYZE tree (only when the
	// query ran under obs.WithProfile; stamped at cursor close).
	Profile *exec.OpProfile
}

// Result is a query answer plus its report.
type Result struct {
	Rows   []value.Tuple
	Report Report
}

// Query answers a conjunctive query over the logical schema from the
// registered fragments: rewrite (PACB under the schema constraints +
// access patterns), choose the cheapest executable plan, run it.
func (s *System) Query(q pivot.CQ) (*Result, error) {
	r, err := s.QueryRows(context.Background(), q)
	if err != nil {
		return nil, err
	}
	rows, err := r.All()
	if err != nil {
		return nil, err
	}
	return &Result{Rows: rows, Report: *r.rep}, nil
}

// QueryRows answers a conjunctive query as a streaming cursor. It is a
// one-shot Prepare with no parameters followed by ExecRows: nothing is
// cached, so callers that repeat a query shape should Prepare it once (the
// service layer does). Batches are produced only as the caller consumes
// them, so the full result is never materialized in the mediator. The
// caller owns the cursor and must Close it; the report's ExecTime and
// PerStore fields are stamped then.
func (s *System) QueryRows(ctx context.Context, q pivot.CQ) (*Rows, error) {
	start := time.Now()
	p, err := s.Prepare(q)
	if err != nil {
		return nil, err
	}
	plan := p.state.Load().plan
	rep := &Report{
		Rewriting:    plan.Rewriting,
		PlanExplain:  plan.Explain(),
		RewriteStats: p.stats,
		Alternatives: len(p.candidates),
		PlanningTime: time.Since(start),
	}
	execStart := time.Now()
	r, err := p.ExecRows(ctx, nil)
	if err != nil {
		return nil, err
	}
	r.rep = rep
	r.OnClose(func() {
		rep.ExecTime = time.Since(execStart)
		rep.PerStore = r.attr.Snapshot()
		rep.Profile = r.Profile()
	})
	return r, nil
}
