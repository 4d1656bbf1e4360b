package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// Prepared is a parameterized query: the expensive rewriting and the
// physical plan are found once, at Prepare time, with each parameter left
// as a slot; each Exec fills the slots with its arguments and opens the
// plan. This mirrors how the scenario's application issues millions of
// key lookups against one query shape.
type Prepared struct {
	sys *System
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

// planState is one plan generation of a Prepared: the plan chosen under
// a specific statistics snapshot.
type planState struct {
	// rewriting is the chosen rewriting with the parameters still
	// variables; plan is its physical plan, with the parameters as slots:
	// the plan that was costed is the plan every Exec opens.
	rewriting pivot.CQ
	plan      *translate.Plan
	// stores lists the deployment names of the stores the plan touches.
	stores []string

	// dataEpoch/planRows stamp the data generation and per-fragment row
	// counts the plan was chosen under (see maybeReplan). dataEpoch is
	// atomic so a no-drift refresh can advance it in place; planRows is
	// written once at construction and read-only afterwards.
	dataEpoch atomic.Uint64
	planRows  map[string]int64
}

// ErrBadArgument is returned by Exec and ExecRows, before any store is
// touched, for an argument that is not a string, integer, float or
// boolean: a parameter stands where a constant of the query could.
var ErrBadArgument = errors.New("estocada: prepared argument must be a string, integer, float or boolean")

// Prepare rewrites a parameterized query. Parameters must be head
// variables of q (their runtime values are also returned, which loses
// nothing); params lists their names.
func (s *System) Prepare(q pivot.CQ, params ...pivot.Var) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
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
	}
	res, err := rewrite.Rewrite(q, s.Catalog.Views(""), rewrite.Options{
		Schema:             s.SchemaConstraints(),
		AccessPatterns:     s.Catalog.AccessPatterns(),
		BoundHeadPositions: paramPos,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rewritings) == 0 {
		return nil, ErrNoPlan
	}
	p := &Prepared{
		sys:        s,
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

// choosePlanState builds the slot plan of every candidate rewriting and
// keeps the cheapest under the current statistics (ties break on the
// rewriting text), wrapped in a fresh plan generation. The plan-choice
// latency is recorded in the system's planning histogram.
func (p *Prepared) choosePlanState() (*planState, error) {
	s := p.sys
	start := time.Now()
	st := &planState{}
	for _, r := range p.candidates {
		pl, err := s.planner.BuildParams(r, p.paramPos)
		if err != nil {
			continue
		}
		if st.plan == nil || pl.Cost < st.plan.Cost ||
			(pl.Cost == st.plan.Cost && r.String() < st.rewriting.String()) {
			st.rewriting, st.plan = r, pl
		}
	}
	s.planHist.Observe(time.Since(start))
	if st.plan == nil {
		return nil, ErrNoPlan
	}
	st.planRows = s.fragmentRowsOf(p.candidates)
	for _, a := range st.rewriting.Body {
		if f, ok := s.Catalog.Get(a.Pred); ok && !slices.Contains(st.stores, f.Store) {
			st.stores = append(st.stores, f.Store)
		}
	}
	st.dataEpoch.Store(s.DataEpoch())
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

// Stores lists the deployment names of the stores the chosen plan touches
// (deduplicated, in body order; shared, not to be modified). The
// degradation layer uses this to fail fast when a touched store's circuit
// breaker is open.
func (p *Prepared) Stores() []string { return p.state.Load().stores }

// Exec runs the prepared query with the given parameter values (one per
// declared parameter, in order) and drains the result.
func (p *Prepared) Exec(args ...value.Value) ([]value.Tuple, error) {
	r, err := p.ExecRows(context.Background(), nil, args...)
	if err != nil {
		return nil, err
	}
	return r.All()
}

// ExecRows runs the prepared query as a streaming cursor: the plan opens
// immediately with its slots filled from args, but result batches are
// produced only as the caller drains them, so nothing materializes the
// full answer. The caller owns the cursor and must Close it (which also
// releases the execution's pooled batches).
func (p *Prepared) ExecRows(ctx context.Context, attr *engine.ExecCounters, args ...value.Value) (*Rows, error) {
	plan, err := p.bind(args)
	if err != nil {
		return nil, err
	}
	if attr == nil {
		attr = engine.NewExecCounters()
	}
	ec := &exec.Ctx{Context: ctx, Counters: attr, Args: args}
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
	return &Rows{Rows: rs, attr: attr, prof: prof, plan: plan}, nil
}

// bind checks the arguments that will fill the plan's slots and returns
// the current plan. When the data epoch moved since the current plan
// generation was chosen, bind detours through maybeReplan first (lazy
// drift-triggered re-planning).
//
//lint:hot
func (p *Prepared) bind(args []value.Value) (*translate.Plan, error) {
	if len(args) != len(p.paramPos) {
		return nil, p.argCountError(len(args))
	}
	for _, a := range args {
		switch a.(type) {
		case value.Str, value.Int, value.Float, value.Bool:
		default:
			return nil, ErrBadArgument
		}
	}
	st := p.state.Load()
	if st.dataEpoch.Load() != p.sys.DataEpoch() {
		st = p.maybeReplan()
	}
	return st.plan, nil
}

// argCountError formats outside bind, which is hot and formats nothing.
func (p *Prepared) argCountError(got int) error {
	return fmt.Errorf("estocada: prepared query takes %d parameters, got %d", len(p.paramPos), got)
}
