// Greedy clause-ordered cost model (in the style of janus-datalog's
// clause-scored planner): at each step every access-pattern-feasible next
// atom is scored by its estimated output cardinality — live per-column
// distinct counts read from Fragment.StatsSnapshot — times a per-store
// access cost derived from the store's configured latency model and its
// measured latency-histogram p50, and the cheapest clause is placed next.
// The same per-step model chooses bind-join vs hash-join per edge and the
// hash-join build side, so ChooseBest compares rewritings and orders
// jointly under one cost function.
package translate

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/pivot"
	"repro/internal/stats"
)

const (
	// latencyBaseline is the per-request service time worth one unit of
	// stats.CostFactors.RequestOverhead; stores are scaled relative to it.
	latencyBaseline = 10 * time.Microsecond
	// cpuPerTuple is the mediator's per-tuple processing cost (work units).
	cpuPerTuple = 0.05
	// minLatencySamples gates the switch from the configured latency model
	// to the measured histogram p50.
	minLatencySamples = 32
	// minRowsFloor keeps cardinality estimates strictly positive.
	minRowsFloor = 0.05
)

// opKind is the operator the planner picked for one placed clause.
type opKind int

const (
	opLeaf opKind = iota // first clause: plain access
	opHash               // independent access + hash join
	opBind               // dependent access: one fetch per distinct bind key
)

// clauseChoice is the scored decision for placing one atom next.
type clauseChoice struct {
	op        opKind
	access    stats.AccessKind
	buildLeft bool    // opHash: materialize the accumulated (left) side
	buildRows float64 // opHash: estimated build-side rows
	bindPos   []int   // opBind: atom positions fed per fetch
	bindKeys  float64 // opBind: estimated distinct fetches
	stepCost  float64
	outCard   float64 // intermediate cardinality after this clause
}

// costModel snapshots the per-store cost factors for one Build call.
type costModel struct {
	p      *Planner
	stores map[string]stats.CostFactors
}

func (p *Planner) newCostModel() *costModel {
	return &costModel{p: p, stores: make(map[string]stats.CostFactors, 4)}
}

// storeFactors derives the store's cost factors: the kind's base factors
// with the per-request overhead scaled by the store's real latency — the
// measured histogram p50 once enough samples exist, else the configured
// store latency model (engine.Base.RequestLatency).
func (cm *costModel) storeFactors(name string) stats.CostFactors {
	if f, ok := cm.stores[name]; ok {
		return f
	}
	kind := "relational"
	var lat time.Duration
	if eng, ok := cm.p.Stores.Engine(name); ok {
		kind = eng.Kind()
		lat = eng.RequestLatency()
		if h := eng.LatencyHistogram(); h.Count() >= minLatencySamples {
			if p50 := h.Snapshot().Quantile(0.5); p50 > 0 {
				lat = time.Duration(p50 * float64(time.Second))
			}
		}
	}
	f := stats.DefaultCostFactors(kind)
	if lat > 0 {
		scale := float64(lat) / float64(latencyBaseline)
		if scale < 0.25 {
			scale = 0.25
		} else if scale > 500 {
			scale = 500
		}
		f.RequestOverhead *= scale
	}
	cm.stores[name] = f
	return f
}

// orderState tracks the greedy walk: which variables are bound, the
// intermediate cardinality, and the previous clause (for the delegation
// round-trip discount).
type orderState struct {
	bound         map[pivot.Var]bool
	card          float64
	placed        int
	prevStore     string
	prevDelegable bool
}

func newOrderState(n int) *orderState {
	return &orderState{bound: make(map[pivot.Var]bool, 2*n), card: 1}
}

func (st *orderState) clone() *orderState {
	b := make(map[pivot.Var]bool, len(st.bound)+4)
	for v := range st.bound {
		b[v] = true
	}
	return &orderState{bound: b, card: st.card, placed: st.placed,
		prevStore: st.prevStore, prevDelegable: st.prevDelegable}
}

func (st *orderState) advance(a pivot.Atom, f *catalog.Fragment, c clauseChoice, cm *costModel) {
	st.card = c.outCard
	for _, v := range a.Vars() {
		st.bound[v] = true
	}
	st.prevStore = f.Store
	st.prevDelegable = cm.p.delegable(f)
	st.placed++
}

// feasibleNow reports whether every access-pattern 'b' position of the atom
// is a constant or an already-bound variable (the same closure rule
// rewrite.FeasibleBound uses).
func feasibleNow(a pivot.Atom, f *catalog.Fragment, bound map[pivot.Var]bool) bool {
	for _, pos := range f.Access.BoundPositions() {
		if pos >= len(a.Args) {
			return false
		}
		if v, ok := a.Args[pos].(pivot.Var); ok && !bound[v] {
			return false
		}
	}
	return true
}

// accessKindAt classifies an equality restriction on one atom position.
func accessKindAt(f *catalog.Fragment, pos int) stats.AccessKind {
	if f.Layout.Kind == catalog.LayoutKV && pos == f.Layout.KeyCol {
		return stats.AccessKey
	}
	if hasIndexCol(f, pos) {
		return stats.AccessIndex
	}
	return stats.AccessScan
}

// selectiveAt reports whether binding pos makes the access cheaper than a
// full scan (key or index).
func selectiveAt(f *catalog.Fragment, pos int) bool {
	return accessKindAt(f, pos) > stats.AccessScan
}

// scoreAtom prices placing atom ai next given the walk state, choosing the
// cheapest operator for the edge (or, with fixed=true, the pre-cost-model
// heuristics: bind only when the access pattern forces it, hash joins
// always building the new input). It does not mutate the state.
func (cm *costModel) scoreAtom(r pivot.CQ, frags []*catalog.Fragment, ai int, st *orderState, fixed bool) clauseChoice {
	a := r.Body[ai]
	f := frags[ai]
	fs := f.StatsSnapshot()
	rows := float64(fs.Rows)
	if rows < 1 {
		rows = 1
	}
	factors := cm.storeFactors(f.Store)

	// Restriction selectivities carried by the atom itself (constants and
	// repeated variables) vs join selectivities from upstream-bound vars.
	constSel := 1.0
	kind := stats.AccessScan
	var boundPos []int
	firstPos := make(map[pivot.Var]int, len(a.Args))
	for pos, t := range a.Args {
		switch tt := t.(type) {
		case pivot.Const:
			constSel *= fs.Selectivity(pos)
			if k := accessKindAt(f, pos); k > kind {
				kind = k
			}
		case pivot.Var:
			if _, seen := firstPos[tt]; seen {
				constSel *= fs.Selectivity(pos)
				continue
			}
			firstPos[tt] = pos
			if st.bound[tt] {
				boundPos = append(boundPos, pos)
			}
		}
	}
	// Access-pattern 'b' positions holding upstream variables force a
	// dependent access: those values must be supplied per fetch.
	var required map[int]bool
	for _, pos := range f.Access.BoundPositions() {
		if pos < len(a.Args) {
			if v, ok := a.Args[pos].(pivot.Var); ok && st.bound[v] {
				if required == nil {
					required = map[int]bool{}
				}
				required[pos] = true
			}
		}
	}

	fetchRows := rows * constSel
	if fetchRows < minRowsFloor {
		fetchRows = minRowsFloor
	}

	var c clauseChoice
	if st.placed == 0 {
		c = clauseChoice{op: opLeaf, access: kind, outCard: fetchRows}
		c.stepCost = stats.AccessCost(kind, factors, rows, fetchRows) + cpuPerTuple*fetchRows
	} else {
		joinSel := 1.0
		for _, pos := range boundPos {
			joinSel *= fs.Selectivity(pos)
		}
		outCard := st.card * fetchRows * joinSel
		if outCard < minRowsFloor {
			outCard = minRowsFloor
		}

		// Hash join: one independent fetch (constants pushed down), then
		// build the estimated-smaller side and probe with the other.
		hash := clauseChoice{op: opHash, access: kind, outCard: outCard}
		hash.buildLeft = st.card < fetchRows
		hash.buildRows = st.card
		if fetchRows < hash.buildRows {
			hash.buildRows = fetchRows
		}
		hash.stepCost = stats.AccessCost(kind, factors, rows, fetchRows) +
			cpuPerTuple*(st.card+fetchRows+outCard)

		// Bind join: one fetch per estimated distinct key over the bound
		// columns that make the access selective; pattern-required columns
		// always bind.
		var bindPos []int
		for pos := range required {
			bindPos = append(bindPos, pos)
		}
		for _, pos := range boundPos {
			if !required[pos] && selectiveAt(f, pos) {
				bindPos = append(bindPos, pos)
			}
		}
		sort.Ints(bindPos)
		var bind clauseChoice
		if len(bindPos) > 0 {
			bindSel, keys := 1.0, 1.0
			bkind := kind
			for _, pos := range bindPos {
				bindSel *= fs.Selectivity(pos)
				keys *= float64(fs.DistinctAt(pos))
				if k := accessKindAt(f, pos); k > bkind {
					bkind = k
				}
			}
			// Distinct bind keys: bounded by the driving cardinality and by
			// the fragment's own key population.
			if keys > st.card {
				keys = st.card
			}
			if keys > rows {
				keys = rows
			}
			if keys < 1 {
				keys = 1
			}
			perFetch := rows * constSel * bindSel
			if perFetch < minRowsFloor {
				perFetch = minRowsFloor
			}
			bind = clauseChoice{op: opBind, access: bkind, bindPos: bindPos, bindKeys: keys, outCard: outCard}
			bind.stepCost = keys*stats.AccessCost(bkind, factors, rows, perFetch) + cpuPerTuple*outCard
		}

		switch {
		case len(required) > 0:
			c = bind
		case fixed:
			hash.buildLeft = false // heuristic baseline: new input builds
			hash.buildRows = fetchRows
			c = hash
		case len(bindPos) > 0 && bind.stepCost < hash.stepCost:
			c = bind
		default:
			c = hash
		}
	}

	// Consecutive same-store delegable clauses merge into one native
	// subquery, saving a round trip: the per-delegation round-trip term
	// (replacing the old flat per-delegation credit). Step costs always
	// include at least one RequestOverhead, so this never goes negative.
	if st.prevDelegable && st.prevStore == f.Store && cm.p.delegable(f) {
		c.stepCost -= factors.RequestOverhead
		if c.stepCost < 0 {
			c.stepCost = 0
		}
	}
	return c
}

// completeCheapest finishes a partial order by repeatedly placing the
// feasible clause with the cheapest step, returning the summed tail cost.
// The bound-variable closure is monotone, so a feasible prefix of a
// feasible body always completes (ok=false only for infeasible bodies).
func (cm *costModel) completeCheapest(r pivot.CQ, frags []*catalog.Fragment, st *orderState, used []bool) (float64, bool) {
	n := len(r.Body)
	var tail float64
	for st.placed < n {
		bestIdx := -1
		var best clauseChoice
		for ai := 0; ai < n; ai++ {
			if used[ai] || !feasibleNow(r.Body[ai], frags[ai], st.bound) {
				continue
			}
			c := cm.scoreAtom(r, frags, ai, st, false)
			if bestIdx < 0 || c.stepCost < best.stepCost ||
				(c.stepCost == best.stepCost && c.outCard < best.outCard) {
				bestIdx, best = ai, c
			}
		}
		if bestIdx < 0 {
			return 0, false
		}
		used[bestIdx] = true
		tail += best.stepCost
		st.advance(r.Body[bestIdx], frags[bestIdx], best, cm)
	}
	return tail, true
}

// exhaustiveOrderLimit caps branch-and-bound order search; larger bodies
// fall back to the rollout-greedy walk. 7! = 5040 orders upper-bounds the
// search, and the greedy seed plus cost pruning cut it far below that.
const exhaustiveOrderLimit = 7

// orderAtoms produces the clause order and per-clause operator choices.
// Fixed mode reproduces the pre-cost-model planner (first feasible clause
// in body order, heuristic operators) and prices it with the same model,
// so the two are directly comparable. Cost-based mode runs the rollout
// greedy walk, refined by exhaustive branch-and-bound on small bodies.
func (cm *costModel) orderAtoms(r pivot.CQ, frags []*catalog.Fragment, fixed bool) (order []int, choices []clauseChoice, cost, card float64, err error) {
	if fixed {
		return cm.orderFixed(r, frags)
	}
	order, choices, cost, card, err = cm.orderGreedy(r, frags)
	if err != nil || len(r.Body) > exhaustiveOrderLimit {
		return order, choices, cost, card, err
	}
	return cm.orderExhaustive(r, frags, order, choices, cost, card)
}

// orderFixed takes the first feasible clause at every step (the semantics
// of rewrite.Feasible) with heuristic operator choices.
func (cm *costModel) orderFixed(r pivot.CQ, frags []*catalog.Fragment) (order []int, choices []clauseChoice, cost, card float64, err error) {
	n := len(r.Body)
	st := newOrderState(n)
	used := make([]bool, n)
	order = make([]int, 0, n)
	choices = make([]clauseChoice, 0, n)
	for st.placed < n {
		bestIdx := -1
		for ai := 0; ai < n; ai++ {
			if !used[ai] && feasibleNow(r.Body[ai], frags[ai], st.bound) {
				bestIdx = ai
				break
			}
		}
		if bestIdx < 0 {
			return nil, nil, 0, 0, fmt.Errorf("translate: rewriting %v is infeasible under access patterns", r)
		}
		c := cm.scoreAtom(r, frags, bestIdx, st, true)
		used[bestIdx] = true
		order = append(order, bestIdx)
		choices = append(choices, c)
		cost += c.stepCost
		st.advance(r.Body[bestIdx], frags[bestIdx], c, cm)
	}
	return order, choices, cost, st.card, nil
}

// orderGreedy scores every feasible next clause by its step cost plus a
// cheapest-step rollout of the remaining clauses (one-step lookahead with
// greedy completion — polynomial, microsecond-scale, and immune to the
// cross-product traps a pure cheapest-step walk falls into).
func (cm *costModel) orderGreedy(r pivot.CQ, frags []*catalog.Fragment) (order []int, choices []clauseChoice, cost, card float64, err error) {
	n := len(r.Body)
	st := newOrderState(n)
	used := make([]bool, n)
	order = make([]int, 0, n)
	choices = make([]clauseChoice, 0, n)
	scratch := make([]bool, n)
	for st.placed < n {
		bestIdx := -1
		var best clauseChoice
		var bestTotal float64
		for ai := 0; ai < n; ai++ {
			if used[ai] || !feasibleNow(r.Body[ai], frags[ai], st.bound) {
				continue
			}
			c := cm.scoreAtom(r, frags, ai, st, false)
			rst := st.clone()
			rst.advance(r.Body[ai], frags[ai], c, cm)
			copy(scratch, used)
			scratch[ai] = true
			tail, ok := cm.completeCheapest(r, frags, rst, scratch)
			if !ok {
				continue
			}
			total := c.stepCost + tail
			if bestIdx < 0 || total < bestTotal ||
				(total == bestTotal && c.outCard < best.outCard) {
				bestIdx, best, bestTotal = ai, c, total
			}
		}
		if bestIdx < 0 {
			return nil, nil, 0, 0, fmt.Errorf("translate: rewriting %v is infeasible under access patterns", r)
		}
		used[bestIdx] = true
		order = append(order, bestIdx)
		choices = append(choices, best)
		cost += best.stepCost
		st.advance(r.Body[bestIdx], frags[bestIdx], best, cm)
	}
	return order, choices, cost, st.card, nil
}

// orderExhaustive refines a seed order by branch-and-bound over all
// feasible orders, pruning prefixes that already cost at least the best
// complete order found. DFS explores atoms in ascending index, so the
// result is deterministic for a given body.
func (cm *costModel) orderExhaustive(r pivot.CQ, frags []*catalog.Fragment, seedOrder []int, seedChoices []clauseChoice, seedCost, seedCard float64) (order []int, choices []clauseChoice, cost, card float64, err error) {
	n := len(r.Body)
	bestOrder, bestChoices, bestCost, bestCard := seedOrder, seedChoices, seedCost, seedCard
	st := newOrderState(n)
	used := make([]bool, n)
	cur := make([]int, 0, n)
	curCh := make([]clauseChoice, 0, n)
	var dfs func(soFar float64)
	dfs = func(soFar float64) {
		if st.placed == n {
			if soFar < bestCost {
				bestOrder = append([]int(nil), cur...)
				bestChoices = append([]clauseChoice(nil), curCh...)
				bestCost, bestCard = soFar, st.card
			}
			return
		}
		for ai := 0; ai < n; ai++ {
			if used[ai] || !feasibleNow(r.Body[ai], frags[ai], st.bound) {
				continue
			}
			c := cm.scoreAtom(r, frags, ai, st, false)
			if soFar+c.stepCost >= bestCost {
				continue
			}
			savedCard, savedStore, savedDeleg := st.card, st.prevStore, st.prevDelegable
			var newly []pivot.Var
			for _, vv := range r.Body[ai].Vars() {
				if !st.bound[vv] {
					st.bound[vv] = true
					newly = append(newly, vv)
				}
			}
			st.card = c.outCard
			st.prevStore = frags[ai].Store
			st.prevDelegable = cm.p.delegable(frags[ai])
			st.placed++
			used[ai] = true
			cur = append(cur, ai)
			curCh = append(curCh, c)

			dfs(soFar + c.stepCost)

			curCh = curCh[:len(curCh)-1]
			cur = cur[:len(cur)-1]
			used[ai] = false
			st.placed--
			st.card, st.prevStore, st.prevDelegable = savedCard, savedStore, savedDeleg
			for _, vv := range newly {
				delete(st.bound, vv)
			}
		}
	}
	dfs(0)
	return bestOrder, bestChoices, bestCost, bestCard, nil
}

// orderGiven prices an externally supplied clause order and produces the
// per-clause operator choices for it. This is the fast path for binding a
// prepared statement: the order search ran once at prepare time, and every
// bind has constants in the same positions, so the chosen order stays
// valid and only the operator choices are re-derived (linear, no search).
func (cm *costModel) orderGiven(r pivot.CQ, frags []*catalog.Fragment, given []int) (order []int, choices []clauseChoice, cost, card float64, err error) {
	n := len(r.Body)
	if len(given) != n {
		return nil, nil, 0, 0, fmt.Errorf("translate: order %v does not cover %d body atoms", given, n)
	}
	st := newOrderState(n)
	seen := make([]bool, n)
	choices = make([]clauseChoice, 0, n)
	for _, ai := range given {
		if ai < 0 || ai >= n || seen[ai] {
			return nil, nil, 0, 0, fmt.Errorf("translate: order %v is not a permutation of %d body atoms", given, n)
		}
		seen[ai] = true
		if !feasibleNow(r.Body[ai], frags[ai], st.bound) {
			return nil, nil, 0, 0, fmt.Errorf("translate: order %v infeasible at atom %d", given, ai)
		}
		c := cm.scoreAtom(r, frags, ai, st, false)
		choices = append(choices, c)
		cost += c.stepCost
		st.advance(r.Body[ai], frags[ai], c, cm)
	}
	return given, choices, cost, st.card, nil
}

// costOrder prices one externally chosen evaluation order with the same
// per-step model (cheapest operator per edge). The small-query oracle test
// compares the greedy order against exhaustive enumeration through this.
func (cm *costModel) costOrder(r pivot.CQ, frags []*catalog.Fragment, order []int) (float64, error) {
	_, _, cost, _, err := cm.orderGiven(r, frags, order)
	return cost, err
}
