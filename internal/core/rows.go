package core

import (
	"repro/internal/engines/engine"
	"repro/internal/exec"
	"repro/internal/translate"
)

// Rows is a streaming cursor over one mediated query execution. It embeds
// the exec-layer cursor (Next/Scan/NextChunk/Close) and adds the
// mediator's per-execution bookkeeping: exact per-store attribution and —
// for cursors opened through System.QueryRows — the query report, whose
// execution fields are stamped when the cursor closes.
type Rows struct {
	*exec.Rows
	attr *engine.ExecCounters
	rep  *Report
	// prof carries the opt-in EXPLAIN ANALYZE profiler (set when the
	// execution was opened under obs.WithProfile).
	prof *exec.Profile
	// plan is the physical plan this cursor executes, kept for planner
	// provenance (clause order, per-clause scores, operator choices).
	plan *translate.Plan
}

// PerStore returns the work each store has performed for this execution
// so far; the split is complete once the cursor is drained or closed.
func (r *Rows) PerStore() map[string]engine.CounterSnapshot { return r.attr.Snapshot() }

// Report returns the query report (nil for cursors opened through
// Prepared.ExecRows). Planning fields are valid immediately; ExecTime and
// PerStore are stamped when the cursor closes.
func (r *Rows) Report() *Report { return r.rep }

// PlanProvenance reports how the planner ordered and operator-assigned the
// plan this cursor executes: chosen clause order, per-clause scores,
// bind-vs-hash choices with build sides, and the stats epoch the plan was
// costed under. It is shared by every execution of the plan: callers
// must not modify it.
func (r *Rows) PlanProvenance() *translate.Provenance { return r.plan.Provenance() }

// Profile renders the per-operator EXPLAIN ANALYZE tree, or nil when the
// execution was not profiled. Complete once the cursor is drained or
// closed; calling it earlier yields the counts so far.
func (r *Rows) Profile() *exec.OpProfile {
	if r.prof == nil {
		return nil
	}
	return r.prof.Tree(r.plan.Root)
}
