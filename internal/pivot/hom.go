package pivot

import "sync"

// Homomorphism search: mapping the atoms of a conjunction into the facts of
// an instance such that constants are preserved and variables are mapped
// consistently. This is the workhorse of containment checks, chase trigger
// detection, and rewriting verification — the innermost loop of the whole
// system.
//
// The search compiles the conjunction once per call: variables become dense
// slots of an array-indexed binding frame (with a trail for O(1)
// backtracking undo), ground terms become interned TermIDs, and atoms whose
// arguments are fully known up front short-circuit through a direct
// membership probe. Candidate facts are enumerated directly off the
// instance's positional index postings — no filtered copies — and the atom
// visit order is fixed once, most-constrained-first, instead of being
// recomputed at every backtracking step. Searcher state is pooled, so a
// steady-state search allocates only when it emits a result.

// HomResult carries a successful homomorphism: the substitution and, for
// each source atom, the index of the instance fact it maps onto.
type HomResult struct {
	Subst Subst
	// FactIdx[i] is the instance fact index that atoms[i] maps to.
	FactIdx []int
}

// FindHom searches for one homomorphism from atoms into inst extending the
// partial substitution fixed (which may be nil). It returns the extended
// substitution and true on success.
func FindHom(atoms []Atom, inst *Instance, fixed Subst) (HomResult, bool) {
	var res HomResult
	found := false
	ForEachHom(atoms, inst, fixed, func(h HomResult) bool {
		res = h
		found = true
		return false // stop at the first
	})
	return res, found
}

// HomExists reports whether any homomorphism from atoms into inst extends
// fixed. Unlike FindHom it never materializes a substitution, so the check
// is allocation-free in the steady state.
func HomExists(atoms []Atom, inst *Instance, fixed Subst) bool {
	if len(atoms) == 0 {
		return true
	}
	hs, status := newHomSearcher(atoms, inst, fixed)
	if status == homNoMatch {
		return false
	}
	found := status == homAllGround
	if !found {
		hs.run(0, func() bool {
			found = true
			return false
		})
	}
	hs.release()
	return found
}

// ForEachHom enumerates homomorphisms from atoms into inst extending fixed,
// invoking fn for each; enumeration stops when fn returns false. The
// HomResult passed to fn shares no state with the enumerator (safe to keep).
func ForEachHom(atoms []Atom, inst *Instance, fixed Subst, fn func(HomResult) bool) {
	if len(atoms) == 0 {
		s := NewSubst()
		if fixed != nil {
			s = fixed.Clone()
		}
		fn(HomResult{Subst: s, FactIdx: nil})
		return
	}
	hs, status := newHomSearcher(atoms, inst, fixed)
	if status != homNoMatch {
		if status == homAllGround {
			fn(hs.emit())
		} else {
			hs.run(0, func() bool { return fn(hs.emit()) })
		}
		hs.release()
	}
}

// Binding is a zero-allocation view of the current match during
// ForEachHomBind enumeration. It is only valid inside the callback; callers
// that need to keep the match must materialize it via Subst.
type Binding struct {
	hs *homSearcher
}

// Image returns the image of v in the current match (including fixed
// bindings), or (nil, false) if v is unbound.
func (b Binding) Image(v Var) (Term, bool) {
	hs := b.hs
	for i, w := range hs.vars {
		if w == v {
			if id := hs.binding[i]; id != NoTerm {
				return hs.inst.tt.Term(id), true
			}
			return nil, false
		}
	}
	if t, ok := hs.extra[v]; ok {
		return t, true
	}
	return nil, false
}

// FactIdx returns the instance fact index that atom i maps to, or -1 when
// i is out of range (e.g. for an empty conjunction).
func (b Binding) FactIdx(i int) int {
	if i < 0 || i >= len(b.hs.factIdx) {
		return -1
	}
	return int(b.hs.factIdx[i])
}

// Subst materializes the match as an independent substitution.
func (b Binding) Subst() Subst {
	s := NewSubst()
	for v, t := range b.hs.extra {
		s[v] = t
	}
	for slot, id := range b.hs.binding {
		if id != NoTerm {
			s[b.hs.vars[slot]] = b.hs.inst.tt.Term(id)
		}
	}
	return s
}

// ForEachHomBind enumerates homomorphisms like ForEachHom, but hands the
// callback a live Binding view instead of a materialized HomResult, so
// callers that only inspect a few variables (chase trigger scans,
// satisfaction probes) allocate nothing per match. The Binding is invalid
// once the callback returns.
func ForEachHomBind(atoms []Atom, inst *Instance, fixed Subst, fn func(Binding) bool) {
	if len(atoms) == 0 {
		hs := homPool.Get().(*homSearcher)
		hs.inst = inst
		hs.vars = hs.vars[:0]
		hs.binding = hs.binding[:0]
		hs.factIdx = hs.factIdx[:0]
		hs.extra = fixed
		fn(Binding{hs})
		hs.release()
		return
	}
	hs, status := newHomSearcher(atoms, inst, fixed)
	if status != homNoMatch {
		if status == homAllGround {
			fn(Binding{hs})
		} else {
			hs.run(0, func() bool { return fn(Binding{hs}) })
		}
		hs.release()
	}
}

// homStatus classifies the outcome of compiling a conjunction.
type homStatus int

const (
	// homSearch: backtracking search required.
	homSearch homStatus = iota
	// homNoMatch: some atom can never match (unknown predicate, ground term
	// absent from the instance, or dead/missing ground fact).
	homNoMatch
	// homAllGround: every atom resolved by direct membership; exactly one
	// homomorphism exists and it is already recorded in factIdx.
	homAllGround
)

// compiledArg is one argument position of a compiled atom: either a ground
// interned term (slot < 0) or a binding-frame slot.
type compiledArg struct {
	slot int32
	term TermID
}

// compiledAtom is an atom compiled against an instance's term table.
type compiledAtom struct {
	origIdx int
	pred    int32
	args    []compiledArg
}

// homSearcher carries the state of one homomorphism search. All mutable
// state lives in flat slices: binding is the array-indexed frame (slot →
// TermID), trail records bound slots for O(1) backtracking undo. Searchers
// are pooled and their slices reused across searches.
type homSearcher struct {
	inst    *Instance
	vars    []Var    // slot -> variable
	binding []TermID // slot -> bound term id, NoTerm if free
	trail   []int32  // slots bound during search, for undo
	order   []compiledAtom
	factIdx []int32 // original atom index -> matched fact, -1 while unmatched
	extra   Subst   // fixed bindings of variables not occurring in atoms

	catoms []compiledAtom // compile scratch
	argBuf []compiledArg  // backing array for compiled atom args
	known  []bool         // orderAtoms scratch
	used   []bool         // orderAtoms scratch
}

var homPool = sync.Pool{New: func() any { return new(homSearcher) }}

// release returns the searcher to the pool. The caller must not touch it
// afterwards; emitted HomResults stay valid (they share no state).
func (hs *homSearcher) release() {
	hs.inst = nil
	hs.extra = nil
	homPool.Put(hs)
}

// slotFor returns the binding slot of v, assigning one on first sight. The
// variable count of a conjunction is small, so a linear scan beats a map.
func (hs *homSearcher) slotFor(v Var) int32 {
	for i, w := range hs.vars {
		if w == v {
			return int32(i)
		}
	}
	hs.vars = append(hs.vars, v)
	hs.binding = append(hs.binding, NoTerm)
	return int32(len(hs.vars) - 1)
}

// newHomSearcher compiles atoms against inst, applies the fixed bindings,
// resolves fully-ground atoms through the membership fast path, and fixes
// the visit order of the remaining atoms. On homNoMatch the searcher has
// already been released.
func newHomSearcher(atoms []Atom, inst *Instance, fixed Subst) (*homSearcher, homStatus) {
	hs := homPool.Get().(*homSearcher)
	hs.inst = inst
	hs.vars = hs.vars[:0]
	hs.binding = hs.binding[:0]
	hs.trail = hs.trail[:0]
	hs.order = hs.order[:0]
	hs.factIdx = hs.factIdx[:0]
	hs.extra = nil
	hs.catoms = hs.catoms[:0]

	// Reserve the arg backing up front: compiled atoms hold views into
	// argBuf, so it must not reallocate while being filled.
	nArgs := 0
	for _, a := range atoms {
		nArgs += len(a.Args)
	}
	if cap(hs.argBuf) < nArgs {
		hs.argBuf = make([]compiledArg, 0, nArgs*2)
	}
	hs.argBuf = hs.argBuf[:0]

	for i, a := range atoms {
		hs.factIdx = append(hs.factIdx, -1)
		pid, ok := inst.predIDs[a.Pred]
		if !ok {
			hs.release()
			return nil, homNoMatch
		}
		start := len(hs.argBuf)
		for _, t := range a.Args {
			if v, isVar := t.(Var); isVar {
				hs.argBuf = append(hs.argBuf, compiledArg{slot: hs.slotFor(v), term: NoTerm})
			} else {
				id, ok := inst.tt.Lookup(t)
				if !ok {
					hs.release()
					return nil, homNoMatch // ground term absent from instance
				}
				hs.argBuf = append(hs.argBuf, compiledArg{slot: -1, term: id})
			}
		}
		hs.catoms = append(hs.catoms, compiledAtom{origIdx: i, pred: pid, args: hs.argBuf[start:len(hs.argBuf):len(hs.argBuf)]})
	}
	// Pre-bind fixed variables; those not occurring in atoms are only
	// remembered for emission.
	for v, t := range fixed {
		slot := int32(-1)
		for i, w := range hs.vars {
			if w == v {
				slot = int32(i)
				break
			}
		}
		if slot < 0 {
			if hs.extra == nil {
				hs.extra = NewSubst()
			}
			hs.extra[v] = t
			continue
		}
		id, ok := inst.tt.Lookup(t)
		if !ok {
			hs.release()
			return nil, homNoMatch // image can never appear in a fact
		}
		hs.binding[slot] = id
	}
	// Ground fast path: atoms whose every argument is known up front are
	// resolved by one index probe and leave the backtracking search.
	var rowArr [inlineArity]TermID
	pending := hs.catoms[:0]
	for _, ca := range hs.catoms {
		row := rowArr[:0]
		if len(ca.args) > inlineArity {
			row = make([]TermID, 0, len(ca.args))
		}
		ground := true
		for _, a := range ca.args {
			id := a.term
			if a.slot >= 0 {
				id = hs.binding[a.slot]
			}
			if id == NoTerm {
				ground = false
				break
			}
			row = append(row, id)
		}
		if !ground {
			pending = append(pending, ca)
			continue
		}
		fi, ok := inst.lookupRow(ca.pred, row)
		if !ok || !inst.live.Has(int(fi)) {
			hs.release()
			return nil, homNoMatch
		}
		hs.factIdx[ca.origIdx] = fi
	}
	if len(pending) == 0 {
		return hs, homAllGround
	}
	hs.orderAtoms(pending)
	return hs, homSearch
}

// orderAtoms fixes the visit order once per search: repeatedly take the
// pending atom with the most known argument positions (ground terms or
// slots bound so far), breaking ties by the smallest candidate-list
// estimate, then mark its slots as bound. This replaces the per-step
// O(atoms²) reordering of the previous implementation.
func (hs *homSearcher) orderAtoms(pending []compiledAtom) {
	inst := hs.inst
	hs.known = hs.known[:0]
	for _, id := range hs.binding {
		hs.known = append(hs.known, id != NoTerm)
	}
	hs.used = hs.used[:0]
	for range pending {
		hs.used = append(hs.used, false)
	}
	for len(hs.order) < len(pending) {
		best, bestBound, bestCands := -1, -1, int(^uint(0)>>1)
		for i, ca := range pending {
			if hs.used[i] {
				continue
			}
			bound := 0
			cands := len(inst.byPred[ca.pred])
			for j, a := range ca.args {
				id := a.term
				if a.slot >= 0 {
					if !hs.known[a.slot] {
						continue
					}
					bound++
					id = hs.binding[a.slot]
					if id == NoTerm {
						// Bound by an earlier atom in the order: the value is
						// unknown at compile time, so it narrows the search
						// but not the estimate.
						continue
					}
				} else {
					bound++
				}
				if l := len(inst.index[posKey{ca.pred, int32(j), id}]); l < cands {
					cands = l
				}
			}
			if bound > bestBound || (bound == bestBound && cands < bestCands) {
				best, bestBound, bestCands = i, bound, cands
			}
		}
		hs.used[best] = true
		hs.order = append(hs.order, pending[best])
		for _, a := range pending[best].args {
			if a.slot >= 0 {
				hs.known[a.slot] = true
			}
		}
	}
}

// candidates returns the most selective index posting list for the atom
// under the current bindings — a view, never a copy. Dead facts are skipped
// by the caller via the liveness bitset.
func (hs *homSearcher) candidates(ca compiledAtom) []int32 {
	best := hs.inst.byPred[ca.pred]
	for j, a := range ca.args {
		id := a.term
		if a.slot >= 0 {
			id = hs.binding[a.slot]
			if id == NoTerm {
				continue
			}
		}
		if l := hs.inst.index[posKey{ca.pred, int32(j), id}]; len(l) < len(best) {
			best = l
		}
	}
	return best
}

// match attempts to map ca onto the fact row, extending the binding frame.
// Newly bound slots are pushed on the trail; the caller undoes to the mark
// on both success (after recursing) and failure.
func (hs *homSearcher) match(ca compiledAtom, row []TermID) bool {
	if len(row) != len(ca.args) {
		return false
	}
	for j, a := range ca.args {
		got := row[j]
		if a.slot < 0 {
			if a.term != got {
				return false
			}
			continue
		}
		if b := hs.binding[a.slot]; b != NoTerm {
			if b != got {
				return false
			}
			continue
		}
		hs.binding[a.slot] = got
		hs.trail = append(hs.trail, a.slot)
	}
	return true
}

// undo pops trail entries down to mark, freeing the slots they bound.
func (hs *homSearcher) undo(mark int) {
	for _, slot := range hs.trail[mark:] {
		hs.binding[slot] = NoTerm
	}
	hs.trail = hs.trail[:mark]
}

// run explores the search tree depth-first. fn is invoked (with the
// searcher's state holding a complete match) for every homomorphism found;
// returning false stops the enumeration. run reports whether enumeration
// ran to completion.
func (hs *homSearcher) run(depth int, fn func() bool) bool {
	if depth == len(hs.order) {
		return fn()
	}
	ca := hs.order[depth]
	live := hs.inst.live
	for _, fi := range hs.candidates(ca) {
		if !live.Has(int(fi)) {
			continue
		}
		mark := len(hs.trail)
		if hs.match(ca, hs.inst.row(int(fi))) {
			hs.factIdx[ca.origIdx] = fi
			cont := hs.run(depth+1, fn)
			hs.factIdx[ca.origIdx] = -1
			hs.undo(mark)
			if !cont {
				return false
			}
		} else {
			hs.undo(mark)
		}
	}
	return true
}

// emit materializes the current complete match as a HomResult that shares no
// state with the searcher.
func (hs *homSearcher) emit() HomResult {
	s := NewSubst()
	for v, t := range hs.extra {
		s[v] = t
	}
	for slot, id := range hs.binding {
		if id != NoTerm {
			s[hs.vars[slot]] = hs.inst.tt.Term(id)
		}
	}
	factIdx := make([]int, len(hs.factIdx))
	for i, fi := range hs.factIdx {
		factIdx[i] = int(fi)
	}
	return HomResult{Subst: s, FactIdx: factIdx}
}
