package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engines/engine"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/translate"
	"repro/internal/value"
)

// Prepared is a parameterized query: the expensive rewriting runs once at
// Prepare time (treating the parameter positions as bound, so key-value
// fragments are reachable); each Exec substitutes the parameter values and
// builds + runs the (cheap) physical plan. This mirrors how the scenario's
// application issues millions of key lookups against one query shape.
type Prepared struct {
	sys    *System
	query  pivot.CQ
	params []pivot.Var // parameter variables, in declaration order
	// candidates are all rewritings found at Prepare time; a drift
	// re-plan re-costs them without redoing the PACB search. paramPos
	// maps each parameter to its head position.
	candidates []pivot.CQ
	paramPos   []int
	// stats is the search effort of the one PACB run that found the
	// candidates.
	stats rewrite.Stats

	// state is the current plan generation, swapped atomically on a drift
	// re-plan so hot-path Execs never take a lock; replanMu serializes
	// the (rare) re-plan itself.
	state    atomic.Pointer[planState]
	replanMu sync.Mutex
}

// planState is one plan generation of a Prepared: the rewriting chosen
// under a specific statistics snapshot plus its bound-plan cache.
type planState struct {
	// rewriting is the chosen rewriting with parameters still symbolic;
	// paramIn maps each parameter to its variable name inside it (head
	// positions are preserved by the rewriter).
	rewriting pivot.CQ
	paramIn   []pivot.Var
	// order is the clause order chosen for the rewriting at plan-choice
	// time. Binds reuse it (translate.BuildOrdered) instead of re-running
	// the order search: every bind has constants in the same positions,
	// so the cost-optimal order is the same.
	order []int

	// plans maps bound-parameter keys to built plans. Reads vastly
	// outnumber writes on the hot path (the service layer funnels every
	// fingerprint-equal query through one Prepared), so a sync.Map keeps
	// concurrent Execs from serializing on a mutex; planLen bounds the
	// entry count approximately.
	plans   sync.Map
	planLen atomic.Int64

	// dataEpoch/planRows stamp the data generation and per-fragment row
	// counts the rewriting was chosen under (see maybeReplan). dataEpoch
	// is atomic so a no-drift refresh can advance it in place without
	// discarding the warm bound-plan cache; planRows is written once at
	// construction and read-only afterwards.
	dataEpoch atomic.Uint64
	planRows  map[string]int64
}

// maxBoundPlanCache bounds the per-Prepared bound-plan cache.
const maxBoundPlanCache = 4096

// Prepare rewrites a parameterized query. Parameters must be head
// variables of q (their runtime values are also returned, which loses
// nothing); params lists their names.
func (s *System) Prepare(q pivot.CQ, params ...pivot.Var) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var boundPos []int
	paramPos := make([]int, len(params))
	for i, p := range params {
		pos := -1
		for hi, t := range q.Head.Args {
			if v, ok := t.(pivot.Var); ok && v == p {
				pos = hi
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("estocada: parameter %s must appear in the query head", p)
		}
		paramPos[i] = pos
		boundPos = append(boundPos, pos)
	}
	res, err := rewrite.Rewrite(q, s.Catalog.Views(""), rewrite.Options{
		Schema:             s.SchemaConstraints(),
		AccessPatterns:     s.Catalog.AccessPatterns(),
		BoundHeadPositions: boundPos,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rewritings) == 0 {
		return nil, ErrNoPlan
	}
	p := &Prepared{
		sys:        s,
		query:      q,
		params:     params,
		candidates: res.Rewritings,
		paramPos:   paramPos,
		stats:      res.Stats,
	}
	st, err := p.choosePlanState()
	if err != nil {
		return nil, err
	}
	p.state.Store(st)
	return p, nil
}

// choosePlanState picks the candidate rewriting whose plan (with
// placeholder parameter values) is cheapest under the current statistics,
// and wraps it in a fresh plan generation. Parameters are substituted by a
// representative constant for costing only. The plan-choice latency is
// recorded in the system's planning histogram.
func (p *Prepared) choosePlanState() (*planState, error) {
	s := p.sys
	start := time.Now()
	placeholder := pivot.CStr("\x00param")
	var best pivot.CQ
	var bestOrder []int
	bestCost := -1.0
	for _, r := range p.candidates {
		sub := pivot.NewSubst()
		for _, pos := range p.paramPos {
			if v, ok := r.Head.Args[pos].(pivot.Var); ok {
				sub[v] = placeholder
			}
		}
		pl, err := s.planner.Build(r.Apply(sub))
		if err != nil {
			continue
		}
		if bestCost < 0 || pl.Cost < bestCost ||
			(pl.Cost == bestCost && r.String() < best.String()) {
			best, bestOrder, bestCost = r, pl.Order, pl.Cost
		}
	}
	s.planHist.Observe(time.Since(start))
	if bestCost < 0 {
		return nil, ErrNoPlan
	}
	st := &planState{
		rewriting: best,
		order:     bestOrder,
		planRows:  s.fragmentRowsOf(p.candidates),
	}
	st.dataEpoch.Store(s.DataEpoch())
	for _, pos := range p.paramPos {
		v, ok := best.Head.Args[pos].(pivot.Var)
		if !ok {
			return nil, fmt.Errorf("estocada: rewriting lost parameter at head position %d", pos)
		}
		st.paramIn = append(st.paramIn, v)
	}
	return st, nil
}

// maybeReplan is the slow path of bind when the data epoch has moved: it
// re-plans iff the fragments' row counts drifted past the threshold since
// the current generation was chosen, otherwise just refreshes the epoch
// stamp (keeping the original planRows snapshot so gradual drift
// accumulates until it crosses the threshold). Serialized by replanMu so a
// drift event triggers exactly one re-plan regardless of Exec concurrency.
func (p *Prepared) maybeReplan() *planState {
	p.replanMu.Lock()
	defer p.replanMu.Unlock()
	st := p.state.Load()
	cur := p.sys.DataEpoch()
	if st.dataEpoch.Load() == cur {
		// Another goroutine already handled this epoch.
		return st
	}
	if !p.sys.rowsDrifted(st.planRows) {
		st.dataEpoch.Store(cur)
		return st
	}
	next, err := p.choosePlanState()
	if err != nil {
		// Re-planning failed (e.g. a fragment vanished mid-flight); keep
		// serving the old generation rather than failing the query, and
		// stop re-trying until the next epoch move.
		st.dataEpoch.Store(cur)
		return st
	}
	p.sys.replans.Add(1)
	p.state.Store(next)
	return next
}

// Rewriting returns the currently chosen symbolic rewriting.
func (p *Prepared) Rewriting() pivot.CQ { return p.state.Load().rewriting }

// Stores lists the deployment names of the stores the chosen rewriting
// touches (deduplicated, in body order). The degradation layer uses this
// to fail fast when a touched store's circuit breaker is open.
func (p *Prepared) Stores() []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range p.Rewriting().Body {
		if f, ok := p.sys.Catalog.Get(a.Pred); ok && !seen[f.Store] {
			seen[f.Store] = true
			out = append(out, f.Store)
		}
	}
	return out
}

// Exec runs the prepared query with the given parameter values (one per
// declared parameter, in order) and drains the result.
func (p *Prepared) Exec(args ...value.Value) ([]value.Tuple, error) {
	r, err := p.ExecRows(context.Background(), nil, args...)
	if err != nil {
		return nil, err
	}
	return r.All()
}

// ExecRows runs the prepared query as a streaming cursor: the bound plan
// opens immediately, but result batches are produced only as the caller
// drains them, so nothing materializes the full answer. The caller owns
// the cursor and must Close it (which also releases the execution's
// pooled batches).
func (p *Prepared) ExecRows(ctx context.Context, attr *engine.ExecCounters, args ...value.Value) (*Rows, error) {
	plan, err := p.bind(args)
	if err != nil {
		return nil, err
	}
	if attr == nil {
		attr = engine.NewExecCounters()
	}
	ec := &exec.Ctx{Context: ctx, Counters: attr}
	var prof *exec.Profile
	if obs.ProfileEnabled(ctx) {
		prof = exec.NewProfile()
		ec.Prof = prof
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		ec.Trace, ec.Span = tr, tr.Root()
	}
	rs, err := exec.Open(ec, plan.Root)
	if err != nil {
		return nil, err
	}
	return &Rows{Rows: rs, attr: attr, prof: prof, root: plan.Root, plan: plan}, nil
}

// bind substitutes the parameter values into the chosen rewriting and
// returns the (cached) physical plan for the bound query. When the data
// epoch moved since the current plan generation was chosen, bind detours
// through maybeReplan first (lazy drift-triggered re-planning).
func (p *Prepared) bind(args []value.Value) (*translate.Plan, error) {
	if len(args) != len(p.params) {
		return nil, fmt.Errorf("estocada: prepared query takes %d parameters, got %d", len(p.params), len(args))
	}
	st := p.state.Load()
	if st.dataEpoch.Load() != p.sys.DataEpoch() {
		st = p.maybeReplan()
	}
	sub := pivot.NewSubst()
	key := ""
	for i, v := range st.paramIn {
		c := valueToConst(args[i])
		sub[v] = c
		key += "|" + c.Key()
	}
	if cached, ok := st.plans.Load(key); ok {
		return cached.(*translate.Plan), nil
	}
	bound := st.rewriting.Apply(sub)
	plan, err := p.sys.planner.BuildOrdered(bound, st.order)
	if err != nil {
		// The stored order can go stale in edge cases (e.g. an access
		// pattern changed under the same fragment name); fall back to a
		// full order search rather than failing the query.
		plan, err = p.sys.planner.Build(bound)
		if err != nil {
			return nil, err
		}
	}
	if st.planLen.Load() < maxBoundPlanCache {
		if _, loaded := st.plans.LoadOrStore(key, plan); !loaded {
			st.planLen.Add(1)
		}
	}
	return plan, nil
}

func valueToConst(v value.Value) pivot.Const {
	switch x := v.(type) {
	case value.Str:
		return pivot.CStr(string(x))
	case value.Int:
		return pivot.CInt(int64(x))
	case value.Float:
		return pivot.CFloat(float64(x))
	case value.Bool:
		return pivot.CBool(bool(x))
	default:
		return pivot.Const{V: v.Key()}
	}
}
