package main

import (
	"fmt"

	"repro/internal/pivot"
	"repro/internal/value"
)

// oracle answers conjunctive queries by nested loops over the base tuples,
// sharing no code with rewrite, translate or exec. A per-column value index,
// built on first use, keeps the inner loops short when a column is bound.
type oracle struct {
	rel   func(pred string) []value.Tuple
	rows  map[string][]value.Tuple
	index map[string]map[int]map[string][]int32
}

func newOracle(rel func(pred string) []value.Tuple) *oracle {
	return &oracle{rel: rel, rows: map[string][]value.Tuple{}, index: map[string]map[int]map[string][]int32{}}
}

func (o *oracle) tuples(pred string) []value.Tuple {
	if r, ok := o.rows[pred]; ok {
		return r
	}
	r := o.rel(pred)
	o.rows[pred] = r
	return r
}

// lookup returns the indexes of pred's tuples whose column col equals v.
func (o *oracle) lookup(pred string, col int, v value.Value) []int32 {
	if o.index[pred] == nil {
		o.index[pred] = map[int]map[string][]int32{}
	}
	ix, ok := o.index[pred][col]
	if !ok {
		ix = map[string][]int32{}
		for i, t := range o.tuples(pred) {
			k := t[col].Key()
			ix[k] = append(ix[k], int32(i))
		}
		o.index[pred][col] = ix
	}
	return ix[v.Key()]
}

// eval returns the set of answers of q (set semantics), keyed by tuple key.
func (o *oracle) eval(q pivot.CQ) map[string]struct{} {
	out := map[string]struct{}{}
	bind := map[pivot.Var]value.Value{}
	// termValue resolves a term under the current binding.
	termValue := func(t pivot.Term) (value.Value, bool) {
		switch x := t.(type) {
		case pivot.Const:
			return value.Of(x.V), true
		case pivot.Var:
			v, ok := bind[x]
			return v, ok
		}
		return nil, false
	}
	done := make([]bool, len(q.Body))
	var walk func(left int)
	walk = func(left int) {
		if left == 0 {
			head := make(value.Tuple, len(q.Head.Args))
			for j, t := range q.Head.Args {
				head[j], _ = termValue(t)
			}
			out[head.Key()] = struct{}{}
			return
		}
		// Next atom: the first one with a bound column (its loop is an
		// index lookup), else the first one left.
		pick, col := -1, -1
		for i, a := range q.Body {
			if done[i] {
				continue
			}
			if pick < 0 {
				pick = i
			}
			for c, t := range a.Args {
				if _, ok := termValue(t); ok {
					pick, col = i, c
					break
				}
			}
			if col >= 0 {
				break
			}
		}
		a := q.Body[pick]
		rows := o.tuples(a.Pred)
		try := func(r value.Tuple) {
			var fresh []pivot.Var
			ok := true
			for c, t := range a.Args {
				if v, bound := termValue(t); bound {
					if !value.Equal(v, r[c]) {
						ok = false
						break
					}
				} else {
					x := t.(pivot.Var)
					bind[x] = r[c]
					fresh = append(fresh, x)
				}
			}
			if ok {
				walk(left - 1)
			}
			for _, x := range fresh {
				delete(bind, x)
			}
		}
		done[pick] = true
		if col >= 0 {
			v, _ := termValue(a.Args[col])
			for _, ri := range o.lookup(a.Pred, col, v) {
				try(rows[ri])
			}
		} else {
			for _, r := range rows {
				try(r)
			}
		}
		done[pick] = false
	}
	walk(len(q.Body))
	return out
}

// check compares the rows the system returned for q with the oracle's
// answer, as sets.
func (o *oracle) check(q pivot.CQ, got []value.Tuple) error {
	want := o.eval(q)
	seen := make(map[string]struct{}, len(got))
	for _, t := range got {
		k := t.Key()
		if _, ok := want[k]; !ok {
			return fmt.Errorf("oracle: %s returned %s, which is not an answer", q, t)
		}
		seen[k] = struct{}{}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("oracle: %s returned %d distinct rows, want %d", q, len(seen), len(want))
	}
	return nil
}
