package engine

import (
	"fmt"

	"repro/internal/value"
)

// Delegated conjunctive queries. When the rewriting translation step finds
// several fragments stored in the same DMS, it delegates the largest
// subquery the store supports as one request (paper §III). Stores with
// CapJoin evaluate a whole DQuery natively; single-collection stores accept
// only single-atom DQueries.

// DTerm is one argument of a delegated atom: a variable (join/output
// position) or a constant (selection).
type DTerm struct {
	Var   string      // "" when Const is set
	Const value.Value // nil when Var is set
}

// DVar makes a variable term.
func DVar(name string) DTerm { return DTerm{Var: name} }

// DConst makes a constant term.
func DConst(v value.Value) DTerm { return DTerm{Const: v} }

// IsVar reports whether the term is a variable.
func (t DTerm) IsVar() bool { return t.Var != "" }

// DAtom is one collection access within a delegated query.
type DAtom struct {
	Collection string
	Terms      []DTerm
}

// DQuery is a conjunctive query over one store's collections. Out lists the
// variables to return, in order.
type DQuery struct {
	Atoms []DAtom
	Out   []string
}

// Validate checks structural sanity: every output variable occurs in some
// atom, and every term is either a variable or a constant.
func (q DQuery) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("engine: delegated query with no atoms")
	}
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		if a.Collection == "" {
			return fmt.Errorf("engine: delegated atom without collection")
		}
		for _, t := range a.Terms {
			if t.IsVar() == (t.Const != nil) {
				return fmt.Errorf("engine: delegated term must be exactly one of var/const")
			}
			if t.IsVar() {
				seen[t.Var] = true
			}
		}
	}
	for _, o := range q.Out {
		if !seen[o] {
			return fmt.Errorf("engine: output variable %q not bound by any atom", o)
		}
	}
	return nil
}

// AccessFunc answers a single-collection access with equality filters,
// returning the matching rows: the store-specific access path used by
// EvalDelegate (index lookup, scan, key get...).
type AccessFunc func(collection string, filters []EqFilter) ([]value.Tuple, error)

// EvalDelegate evaluates a delegated conjunctive query with an index
// nested-loop strategy: atoms are processed greedily most-bound-first; for
// each intermediate binding the next atom is accessed with all bound
// positions pushed down as equality filters. This is the generic evaluator
// reused by the relational and parallel substrates (which advertise
// CapJoin). The result is materialized before the first batch is handed
// out.
func EvalDelegate(q DQuery, access AccessFunc) (BatchIterator, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	bindings := []map[string]value.Value{{}}
	remaining := append([]DAtom(nil), q.Atoms...)
	for len(remaining) > 0 {
		// Pick the atom with the most positions bound under the first
		// binding (all bindings share a variable set at each stage).
		probe := map[string]bool{}
		if len(bindings) > 0 {
			for v := range bindings[0] {
				probe[v] = true
			}
		}
		best, bestBound := 0, -1
		for i, a := range remaining {
			bound := 0
			for _, t := range a.Terms {
				if !t.IsVar() || probe[t.Var] {
					bound++
				}
			}
			if bound > bestBound {
				best, bestBound = i, bound
			}
		}
		atom := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)

		var next []map[string]value.Value
		for _, b := range bindings {
			filters := make([]EqFilter, 0, len(atom.Terms))
			for pos, t := range atom.Terms {
				if !t.IsVar() {
					filters = append(filters, EqFilter{Col: pos, Val: t.Const})
				} else if bv, ok := b[t.Var]; ok {
					filters = append(filters, EqFilter{Col: pos, Val: bv})
				}
			}
			rows, err := access(atom.Collection, filters)
			if err != nil {
				return nil, err
			}
			for _, row := range rows {
				nb := make(map[string]value.Value, len(b)+len(atom.Terms))
				for k, v := range b {
					nb[k] = v
				}
				okRow := true
				for pos, t := range atom.Terms {
					if !t.IsVar() || pos >= len(row) {
						continue
					}
					if prev, bound := nb[t.Var]; bound {
						if !value.Equal(prev, row[pos]) {
							okRow = false
							break
						}
					} else {
						nb[t.Var] = row[pos]
					}
				}
				if okRow {
					next = append(next, nb)
				}
			}
		}
		bindings = next
		if len(bindings) == 0 {
			break
		}
	}
	out := make([]value.Tuple, 0, len(bindings))
	for _, b := range bindings {
		row := make(value.Tuple, len(q.Out))
		for i, v := range q.Out {
			if bv, ok := b[v]; ok {
				row[i] = bv
			} else {
				row[i] = value.Null{}
			}
		}
		out = append(out, row)
	}
	return NewSliceBatchIterator(out), nil
}
