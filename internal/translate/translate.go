package translate

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engines/engine"
	"repro/internal/exec"
	"repro/internal/pivot"
	"repro/internal/value"
)

// Planner translates rewritings into executable plans and costs them.
// maxDistinctHint caps the pre-sized dedup table of the final Distinct:
// estimates are unclamped products and can vastly exceed real outputs.
const maxDistinctHint = 1 << 20

type Planner struct {
	Catalog *catalog.Catalog
	Stores  *Stores
	// DisableDelegation turns off multi-atom subquery push-down: every
	// fragment is accessed individually and all joins run in the mediator.
	// Used by the delegation ablation benchmark; production keeps it off.
	DisableDelegation bool
	// FixedOrder disables the greedy cost-based clause orderer: the plan
	// takes the first feasible order in body order with the pre-cost-model
	// operator heuristics (bind join only when the access pattern forces
	// it, hash joins always building the new input). Ablation baseline for
	// the planner benchmarks; production keeps it off.
	FixedOrder bool
	// DataEpoch, when set, stamps each plan with the data generation its
	// statistics snapshot was read under; the drift re-planning loop in
	// core keys off it.
	DataEpoch func() uint64
}

// ClauseScore is the planner's provenance for one placed clause: which
// operator was chosen, why (estimated rows and step cost), and through
// which access path.
type ClauseScore struct {
	Atom     string `json:"atom"`
	Fragment string `json:"fragment"`
	Store    string `json:"store"`
	// Access is the access path: scan, index, or key.
	Access string `json:"access"`
	// Op is the operator: access, hash-join, bind-join, or delegate.
	Op string `json:"op"`
	// BuildSide reports which hash-join input is materialized (left =
	// the accumulated subplan, right = this clause's fetch).
	BuildSide string `json:"buildSide,omitempty"`
	// BindKeys is the estimated number of distinct dependent fetches.
	BindKeys float64 `json:"bindKeys,omitempty"`
	// EstRows is the estimated intermediate cardinality after this clause.
	EstRows float64 `json:"estRows"`
	// StepCost is this clause's share of the plan cost.
	StepCost float64 `json:"stepCost"`
}

// Provenance is the JSON-ready planner report surfaced by explain.
type Provenance struct {
	Rewriting  string        `json:"rewriting"`
	Cost       float64       `json:"cost"`
	EstRows    float64       `json:"estRows"`
	StatsEpoch uint64        `json:"statsEpoch"`
	FixedOrder bool          `json:"fixedOrder,omitempty"`
	Clauses    []ClauseScore `json:"clauses"`
}

// Plan is an executable physical plan for one rewriting. Plans are
// immutable once built and shared by concurrent executions.
type Plan struct {
	// Root is the operator tree.
	Root exec.Node
	// Rewriting is the view-level conjunctive query the plan evaluates.
	Rewriting pivot.CQ
	// Cost is the estimated total cost (unitless work units).
	Cost float64
	// Order is the feasible atom evaluation order used.
	Order []int
	// Clauses records the per-clause scores in evaluation order.
	Clauses []ClauseScore
	// prov is the planner report, rendered once when the plan is built:
	// it adds the estimated rows, the statistics epoch and the ablation
	// flag.
	prov *Provenance
}

// Explain renders the plan: the rewriting, the clause-by-clause planner
// provenance (order, access path, operator choice, per-step score), and
// the physical operator tree.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rewriting: %s\n", p.Rewriting)
	fmt.Fprintf(&sb, "est. cost: %.2f, est. rows: %.1f (stats epoch %d)\n", p.Cost, p.prov.EstRows, p.prov.StatsEpoch)
	for i, c := range p.Clauses {
		fmt.Fprintf(&sb, "  %d. %s [%s.%s] op=%s", i+1, c.Atom, c.Store, c.Fragment, c.Op)
		if c.BuildSide != "" {
			fmt.Fprintf(&sb, " build=%s", c.BuildSide)
		}
		if c.BindKeys > 0 {
			fmt.Fprintf(&sb, " keys~%.0f", c.BindKeys)
		}
		fmt.Fprintf(&sb, " access=%s est rows=%.1f cost=%.2f\n", c.Access, c.EstRows, c.StepCost)
	}
	sb.WriteString(exec.Explain(p.Root))
	return sb.String()
}

// String renders the plan (alias of Explain).
func (p *Plan) String() string { return p.Explain() }

// Provenance returns the plan's JSON-ready planner report. It is built
// with the plan and shared by all its executions: callers must not
// modify it.
func (p *Plan) Provenance() *Provenance { return p.prov }

// Build translates one rewriting into a plan: the greedy cost-based
// orderer picks the clause order and the per-edge operators, then the
// operator tree is assembled to match its choices.
func (p *Planner) Build(r pivot.CQ) (*Plan, error) { return p.build(r, nil) }

// BuildOrdered builds a plan reusing a pre-chosen clause order instead of
// searching: only the per-clause operator choices are derived (a linear
// pass).
func (p *Planner) BuildOrdered(r pivot.CQ, order []int) (*Plan, error) { return p.build(r, order) }

// BuildParams builds one plan for a rewriting whose statement parameters
// are the variables at the head positions headPos. Parameter i becomes the
// slot exec.Arg(i): it is planned and priced as a constant in its
// positions and filled from the execution's arguments when the plan
// opens, so one plan serves every binding.
func (p *Planner) BuildParams(r pivot.CQ, headPos []int) (*Plan, error) {
	sub := pivot.NewSubst()
	for i, pos := range headPos {
		v, ok := r.Head.Args[pos].(pivot.Var)
		if !ok {
			// Fixed to a constant, the rewriting cannot serve other bindings.
			return nil, fmt.Errorf("translate: head position %d of %v is not a parameter variable", pos, r)
		}
		sub[v] = pivot.Const{V: exec.Arg(i)}
	}
	return p.build(r.Apply(sub), nil)
}

func (p *Planner) build(r pivot.CQ, orderHint []int) (*Plan, error) {
	frags := make([]*catalog.Fragment, len(r.Body))
	conts := make([]*Container, len(r.Body))
	for i, a := range r.Body {
		f, ok := p.Catalog.Get(a.Pred)
		if !ok {
			return nil, fmt.Errorf("translate: rewriting references unknown fragment %q", a.Pred)
		}
		if a.Arity() != f.View.Def.Head.Arity() {
			return nil, fmt.Errorf("translate: atom %v arity mismatch with fragment %q", a, f.Name)
		}
		c, err := p.Stores.Container(f)
		if err != nil {
			return nil, err
		}
		frags[i], conts[i] = f, c
	}
	cm := p.newCostModel()
	var (
		order   []int
		choices []clauseChoice
		cost    float64
		rows    float64
		err     error
	)
	if orderHint != nil {
		order, choices, cost, rows, err = cm.orderGiven(r, frags, orderHint)
	} else {
		order, choices, cost, rows, err = cm.orderAtoms(r, frags, p.FixedOrder)
	}
	if err != nil {
		return nil, err
	}
	choiceAt := make(map[int]clauseChoice, len(order))
	for i, ai := range order {
		choiceAt[ai] = choices[i]
	}

	groups := p.groupForDelegation(frags, order)
	var root exec.Node
	delegated := map[int]bool{}
	for _, g := range groups {
		var node exec.Node
		var err error
		if len(g) > 1 {
			node, err = p.buildDelegatedGroup(r, frags, g)
			for _, ai := range g {
				delegated[ai] = true
			}
		} else {
			ai := g[0]
			ch := choiceAt[ai]
			if root != nil && ch.op == opBind {
				root, err = p.buildBindJoin(root, r.Body[ai], frags[ai], conts[ai], ch.bindPos)
				if err != nil {
					return nil, err
				}
				continue
			}
			node, err = p.buildAtomLeaf(r.Body[ai], frags[ai], conts[ai])
			if err == nil && root != nil {
				// Hash join, build side = the estimated-smaller input (the
				// right argument is the materialized one).
				left, right, side := root, node, "right"
				if ch.op == opHash && ch.buildLeft {
					left, right, side = node, root, "left"
				}
				hj, jerr := exec.NewHashJoin(left, right)
				if jerr != nil {
					return nil, jerr
				}
				hj.Desc = fmt.Sprintf("build=%s ~%.0f rows", side, ch.buildRows)
				root = hj
				continue
			}
		}
		if err != nil {
			return nil, err
		}
		if root == nil {
			root = node
		} else {
			hj, err := exec.NewHashJoin(root, node)
			if err != nil {
				return nil, err
			}
			root = hj
		}
	}
	if root == nil {
		return nil, fmt.Errorf("translate: empty rewriting")
	}

	final, err := p.buildHead(root, r.Head)
	if err != nil {
		return nil, err
	}
	clauses := make([]ClauseScore, len(order))
	for i, ai := range order {
		ch := choices[i]
		cs := ClauseScore{
			Atom:     r.Body[ai].String(),
			Fragment: frags[ai].Name,
			Store:    frags[ai].Store,
			Access:   ch.access.String(),
			EstRows:  ch.outCard,
			StepCost: ch.stepCost,
		}
		switch {
		case delegated[ai]:
			cs.Op = "delegate"
		case ch.op == opLeaf:
			cs.Op = "access"
		case ch.op == opBind:
			cs.Op = "bind-join"
			cs.BindKeys = ch.bindKeys
		default:
			cs.Op = "hash-join"
			if ch.buildLeft {
				cs.BuildSide = "left"
			} else {
				cs.BuildSide = "right"
			}
		}
		clauses[i] = cs
	}
	var epoch uint64
	if p.DataEpoch != nil {
		epoch = p.DataEpoch()
	}
	// Clamp the dedup-table hint: cardinality estimates are unbounded
	// products and must not pre-allocate an arbitrarily large map.
	sizeHint := 0
	if rows > 0 {
		if rows < maxDistinctHint {
			sizeHint = int(rows)
		} else {
			sizeHint = maxDistinctHint
		}
	}
	return &Plan{
		Root:      &exec.Distinct{In: final, SizeHint: sizeHint},
		Rewriting: r,
		Cost:      cost,
		Order:     order,
		Clauses:   clauses,
		prov: &Provenance{
			Rewriting:  r.String(),
			Cost:       cost,
			EstRows:    rows,
			StatsEpoch: epoch,
			FixedOrder: p.FixedOrder,
			Clauses:    clauses,
		},
	}, nil
}

// ChooseBest builds plans for all rewritings and returns the cheapest.
// Rewritings and clause orders are costed jointly under the same model;
// equal-cost plans tie-break on the canonical rewriting string, so the
// choice is deterministic regardless of enumeration order.
func (p *Planner) ChooseBest(rewritings []pivot.CQ) (*Plan, []*Plan, error) {
	var plans []*Plan
	var firstErr error
	for _, r := range rewritings {
		pl, err := p.Build(r)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		plans = append(plans, pl)
	}
	if len(plans) == 0 {
		if firstErr != nil {
			return nil, nil, firstErr
		}
		return nil, nil, fmt.Errorf("translate: no executable plan")
	}
	sort.SliceStable(plans, func(i, j int) bool {
		if plans[i].Cost != plans[j].Cost {
			return plans[i].Cost < plans[j].Cost
		}
		return plans[i].prov.Rewriting < plans[j].prov.Rewriting
	})
	return plans[0], plans, nil
}

// groupForDelegation merges maximal runs of consecutive (in feasible order)
// delegable atoms living in the same store into delegation groups.
func (p *Planner) groupForDelegation(frags []*catalog.Fragment, order []int) [][]int {
	var groups [][]int
	for _, ai := range order {
		if n := len(groups); n > 0 && p.delegable(frags[ai]) {
			last := groups[n-1]
			if prev := frags[last[0]]; prev.Store == frags[ai].Store && p.delegable(prev) {
				groups[n-1] = append(last, ai)
				continue
			}
		}
		groups = append(groups, []int{ai})
	}
	return groups
}

// delegable reports whether the fragment's accesses can merge into a
// pushed-down native subquery on its store.
func (p *Planner) delegable(f *catalog.Fragment) bool {
	if p.DisableDelegation || f.Access != "" {
		return false
	}
	eng, ok := p.Stores.Engine(f.Store)
	return ok && eng.Capabilities().Has(engine.CapJoin)
}

// buildAtomLeaf creates a Source for one atom: constants become pushed
// filters, repeated variables residual column equalities, and the output
// schema names the first occurrence of each variable.
func (p *Planner) buildAtomLeaf(a pivot.Atom, f *catalog.Fragment, c *Container) (exec.Node, error) {
	rawSchema, filters, eqCols, keep, err := atomAccessSpec(a)
	if err != nil {
		return nil, err
	}
	store := f.Store
	src := &exec.Source{
		Name: fmt.Sprintf("%s.access(%s)", f.Store, f.Name),
		Out:  rawSchema,
		BatchFn: func(ec *exec.Ctx) (engine.BatchIterator, error) {
			return c.Open(ec.Ctx(), fillFilters(ec, filters, 0), ec.StoreCounters(store))
		},
	}
	var node exec.Node = src
	if len(eqCols) > 0 {
		node = &exec.Select{In: node, EqCols: eqCols}
	}
	if len(keep) != len(rawSchema) {
		names := make([]string, len(keep))
		for i, pos := range keep {
			names[i] = rawSchema[pos]
		}
		proj, err := exec.NewProject(node, names)
		if err != nil {
			return nil, err
		}
		node = proj
	}
	return node, nil
}

// atomAccessSpec analyses an atom: raw per-position column names (repeated
// variables get synthetic names), pushed filters for constants, residual
// column equalities for repeated variables, and the positions to keep.
func atomAccessSpec(a pivot.Atom) (exec.Schema, []engine.EqFilter, [][2]int, []int, error) {
	raw := make(exec.Schema, len(a.Args))
	var filters []engine.EqFilter
	var eqCols [][2]int
	var keep []int
	firstPos := map[pivot.Var]int{}
	for pos, t := range a.Args {
		switch tt := t.(type) {
		case pivot.Const:
			raw[pos] = fmt.Sprintf("_c%d", pos)
			filters = append(filters, engine.EqFilter{Col: pos, Val: constToValue(tt)})
		case pivot.Var:
			if fp, seen := firstPos[tt]; seen {
				raw[pos] = fmt.Sprintf("_dup%d", pos)
				eqCols = append(eqCols, [2]int{fp, pos})
			} else {
				firstPos[tt] = pos
				raw[pos] = string(tt)
				keep = append(keep, pos)
			}
		default:
			return nil, nil, nil, nil, fmt.Errorf("translate: atom %v contains a labeled null", a)
		}
	}
	return raw, filters, eqCols, keep, nil
}

// fillFilters copies the pushed filters for one execution, with every
// slot filled and room for extra more.
//
//lint:hot
func fillFilters(ec *exec.Ctx, filters []engine.EqFilter, extra int) []engine.EqFilter {
	out := make([]engine.EqFilter, len(filters), len(filters)+extra)
	for i, f := range filters {
		out[i] = engine.EqFilter{Col: f.Col, Val: ec.Fill(f.Val)}
	}
	return out
}

// buildBindJoin wires a dependent access: the given atom positions (the
// access pattern's variable 'b' positions plus any planner-chosen
// selective join columns) are fed from the left plan per distinct key;
// constants are pushed as filters.
func (p *Planner) buildBindJoin(left exec.Node, a pivot.Atom, f *catalog.Fragment, c *Container, bindAt []int) (exec.Node, error) {
	rawSchema, constFilters, eqCols, keep, err := atomAccessSpec(a)
	if err != nil {
		return nil, err
	}
	var bindVars []string
	var bindPos []int
	for _, pos := range bindAt {
		if pos >= len(a.Args) {
			return nil, fmt.Errorf("translate: bind position %d outside atom %v", pos, a)
		}
		v, ok := a.Args[pos].(pivot.Var)
		if !ok {
			return nil, fmt.Errorf("translate: bind position %d of %v is not a variable", pos, a)
		}
		if left.Schema().Pos(string(v)) < 0 {
			return nil, fmt.Errorf("translate: bind variable %s of %v not produced upstream", v, a)
		}
		bindVars = append(bindVars, string(v))
		bindPos = append(bindPos, pos)
	}
	keepNames := make(exec.Schema, len(keep))
	for i, pos := range keep {
		keepNames[i] = rawSchema[pos]
	}
	store := f.Store
	fetch := func(ec *exec.Ctx, bind value.Tuple) (engine.BatchIterator, error) {
		filters := fillFilters(ec, constFilters, len(bindPos))
		for i, pos := range bindPos {
			filters = append(filters, engine.EqFilter{Col: pos, Val: bind[i]})
		}
		it, err := c.Open(ec.Ctx(), filters, ec.StoreCounters(store))
		if err != nil {
			return nil, err
		}
		// Residual repeated-variable checks (shared engine.BatchFilter —
		// the same predicate exec.Select uses), then keep first occurrences.
		var wrapped engine.BatchIterator = it
		if len(eqCols) > 0 {
			wrapped = &engine.BatchFilter{In: wrapped, EqCols: eqCols}
		}
		return &engine.BatchProject{In: wrapped, Cols: keep}, nil
	}
	bj, err := exec.NewBindJoin(left, bindVars, keepNames, fetch)
	if err != nil {
		return nil, err
	}
	// Store attribution for EXPLAIN trees: the dependent access's store
	// and fragment show up in the bind join's label.
	bj.Desc = fmt.Sprintf("%s.fetch(%s)", f.Store, f.Name)
	return bj, nil
}

// buildDelegatedGroup pushes several same-store atoms as one native
// subquery (the "largest subquery that can be delegated", paper §III).
func (p *Planner) buildDelegatedGroup(r pivot.CQ, frags []*catalog.Fragment, group []int) (exec.Node, error) {
	storeName := frags[group[0]].Store
	dq := engine.DQuery{}
	var outVars []string
	seen := map[string]bool{}
	for _, ai := range group {
		a := r.Body[ai]
		f := frags[ai]
		da := engine.DAtom{Collection: f.Layout.Collection}
		for _, t := range a.Args {
			switch tt := t.(type) {
			case pivot.Const:
				da.Terms = append(da.Terms, engine.DConst(constToValue(tt)))
			case pivot.Var:
				name := string(tt)
				da.Terms = append(da.Terms, engine.DVar(name))
				if !seen[name] {
					seen[name] = true
					outVars = append(outVars, name)
				}
			default:
				return nil, fmt.Errorf("translate: atom %v contains a labeled null", a)
			}
		}
		dq.Atoms = append(dq.Atoms, da)
	}
	dq.Out = outVars

	eng, _ := p.Stores.Engine(storeName)
	st, ok := eng.(delegator)
	if !ok {
		return nil, fmt.Errorf("translate: store %q cannot take delegated joins", storeName)
	}
	return &exec.Source{
		Name: fmt.Sprintf("%s.delegate(%d atoms)", storeName, len(group)),
		Out:  exec.Schema(outVars),
		BatchFn: func(ec *exec.Ctx) (engine.BatchIterator, error) {
			it, err := st.QueryBatchCounted(ec.Ctx(), fillQuery(ec, dq), ec.StoreCounters(storeName))
			if err != nil {
				return nil, err
			}
			return engine.TimeBatches(st.LatencyHistogram(), it), nil
		},
	}, nil
}

// fillQuery returns a copy of a delegated subquery with every slot filled
// from the execution's arguments.
//
//lint:hot
func fillQuery(ec *exec.Ctx, q engine.DQuery) engine.DQuery {
	atoms := make([]engine.DAtom, len(q.Atoms))
	for i, a := range q.Atoms {
		terms := make([]engine.DTerm, len(a.Terms))
		for j, t := range a.Terms {
			if !t.IsVar() {
				t.Const = ec.Fill(t.Const)
			}
			terms[j] = t
		}
		atoms[i] = engine.DAtom{Collection: a.Collection, Terms: terms}
	}
	return engine.DQuery{Atoms: atoms, Out: q.Out}
}

// delegator is a store that evaluates whole conjunctive subqueries
// (CapJoin): the relational and the parallel store.
type delegator interface {
	engine.Engine
	QueryBatchCounted(ctx context.Context, q engine.DQuery, extra *engine.Counters) (engine.BatchIterator, error)
}

// buildHead projects the head variables and appends constant head columns.
func (p *Planner) buildHead(root exec.Node, head pivot.Atom) (exec.Node, error) {
	var varCols []string
	constCols := map[int]value.Value{}
	for i, t := range head.Args {
		switch tt := t.(type) {
		case pivot.Var:
			varCols = append(varCols, string(tt))
		case pivot.Const:
			constCols[i] = constToValue(tt)
		default:
			return nil, fmt.Errorf("translate: head %v contains a labeled null", head)
		}
	}
	node, err := exec.NewProject(root, varCols)
	if err != nil {
		return nil, err
	}
	if len(constCols) == 0 {
		return node, nil
	}
	// Interleave the constant head columns among the projected variables
	// with the shared batch extender.
	out := make(exec.Schema, len(head.Args))
	for i, t := range head.Args {
		if _, isConst := constCols[i]; isConst {
			out[i] = fmt.Sprintf("_hc%d", i)
		} else {
			out[i] = string(t.(pivot.Var))
		}
	}
	return exec.NewExtendConsts(node, out, constCols)
}

func constToValue(c pivot.Const) value.Value { return value.Of(c.V) }

func hasIndexCol(f *catalog.Fragment, pos int) bool {
	for _, c := range f.Layout.IndexCols {
		if c == pos {
			return true
		}
	}
	return false
}
