// Package maintain is ESTOCADA's write path: a DML front door over the
// mediator's base collections with incremental maintenance of every
// registered fragment. The paper's system materializes query fragments
// (conjunctive views) across heterogeneous stores and then freezes; this
// layer accepts live inserts and deletes against the logical base
// relations, computes count-annotated deltas for each fragment whose
// definition mentions the written predicate — semi-naive evaluation: the
// fragment body is re-run with the delta substituted for the changed atom,
// on the existing vectorized exec pipeline — and applies those deltas to
// the owning stores through their native write APIs.
//
// Multiplicity bookkeeping follows the classical counting algorithm for
// non-recursive views: the maintainer tracks, per fragment, how many
// derivations support each tuple; a store insert happens only on the
// 0→positive transition and a store delete only on the →0 transition, so
// fragments keep set semantics in their containers while deletions never
// over-delete tuples with surviving alternative derivations.
//
// Writes are a data-plane change only: they advance core.System's data
// epoch and leave the catalog epoch alone, so prepared statements, cached
// rewritings and their plans all stay warm across DML (see
// TestDMLPreservesPlanCache).
package maintain

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/pivot"
	"repro/internal/stats"
	"repro/internal/value"
)

// counted is one tuple with its multiplicity (bag count, or a signed delta
// during evaluation).
type counted struct {
	t value.Tuple
	n int64
}

// baseRel is one logical base collection as a multiset.
type baseRel struct {
	arity int
	rows  map[string]*counted
}

// fragState is the maintainer's view of one tracked fragment.
type fragState struct {
	frag *catalog.Fragment
	// counts maps derived-tuple keys to derivation counts; its support set
	// equals the fragment's stored contents.
	counts map[string]*counted
	inc    *stats.Incremental
	// applyMu serializes this fragment's applier: store writes and the
	// count/statistics updates they mirror happen under it, so appliers
	// for different fragments run concurrently while each fragment sees a
	// single writer (readers are unaffected — stores publish snapshots).
	applyMu sync.Mutex
}

// Maintainer owns the write path of one system. All methods are safe for
// concurrent use; DML calls serialize on the maintainer (base-state
// consistency requires a single logical writer) while per-fragment
// appliers fan out concurrently underneath.
type Maintainer struct {
	sys   *core.System
	mu    sync.Mutex
	base  map[string]*baseRel
	frags map[string]*fragState
}

// New attaches a maintainer to a system as its DML front door.
func New(sys *core.System) *Maintainer {
	m := NewDetached(sys)
	m.Attach()
	return m
}

// NewDetached creates a maintainer WITHOUT attaching it as the system's
// DML front door. Bootstrap sequences (seed bases, track fragments) use
// it so that a half-bootstrapped maintainer never serves writes: until
// Attach, sys.InsertInto keeps failing with ErrNoDML instead of silently
// skipping untracked fragments.
func NewDetached(sys *core.System) *Maintainer {
	return &Maintainer{
		sys:   sys,
		base:  map[string]*baseRel{},
		frags: map[string]*fragState{},
	}
}

// Attach installs the maintainer as the system's DML front door.
func (m *Maintainer) Attach() { m.sys.SetDML(m) }

// System returns the maintained system.
func (m *Maintainer) System() *core.System { return m.sys }

// DefineBase declares an empty base collection of the given arity.
func (m *Maintainer) DefineBase(pred string, arity int) error {
	if pred == "" || arity <= 0 {
		return fmt.Errorf("%w: base relation needs a name and positive arity", core.ErrBadWrite)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.base[pred]; ok {
		return fmt.Errorf("%w: base relation %q already defined", core.ErrBadWrite, pred)
	}
	m.base[pred] = &baseRel{arity: arity, rows: map[string]*counted{}}
	return nil
}

// SeedBase declares a base collection and loads its initial rows WITHOUT
// maintaining fragments — the bootstrap path used when a deployment's
// fragments were materialized from the same source data (Track then adopts
// them). Arity is taken from the first row.
func (m *Maintainer) SeedBase(pred string, rows []value.Tuple) error {
	if len(rows) == 0 {
		return fmt.Errorf("%w: seed of %q needs at least one row to fix the arity", core.ErrBadWrite, pred)
	}
	if err := m.DefineBase(pred, len(rows[0])); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rel := m.base[pred]
	for _, r := range rows {
		if len(r) != rel.arity {
			return fmt.Errorf("%w: base %q expects arity %d, got row of %d", core.ErrBadWrite, pred, rel.arity, len(r))
		}
		addCount(rel.rows, r, 1)
	}
	return nil
}

// BaseRows returns the current multiset contents of a base collection
// (each tuple repeated per its multiplicity), for verification and tests.
func (m *Maintainer) BaseRows(pred string) []value.Tuple {
	m.mu.Lock()
	defer m.mu.Unlock()
	rel, ok := m.base[pred]
	if !ok {
		return nil
	}
	var out []value.Tuple
	for _, c := range rel.rows {
		for i := int64(0); i < c.n; i++ {
			out = append(out, c.t)
		}
	}
	return out
}

// Track adopts an already-registered, already-materialized fragment:
// derivation counts and statistics are recomputed from the current base
// state. The store's contents are trusted to equal the recomputed support
// set (true whenever store and base were loaded from the same data);
// Recompute re-synchronizes a fragment for which that does not hold.
func (m *Maintainer) Track(name string) error {
	f, ok := m.sys.Catalog.Get(name)
	if !ok {
		return fmt.Errorf("estocada: no fragment %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	counts, err := m.evalExtent(f)
	if err != nil {
		return err
	}
	m.adopt(f, counts)
	return m.sys.Catalog.SetStats(name, m.frags[name].inc.Stats())
}

// TrackAll adopts every fragment registered in the catalog.
func (m *Maintainer) TrackAll() error {
	for _, f := range m.sys.Catalog.All() {
		if err := m.Track(f.Name); err != nil {
			return err
		}
	}
	return nil
}

// RegisterFragment registers a new fragment with the system, materializes
// its extent from the current base state and starts maintaining it.
func (m *Maintainer) RegisterFragment(f *catalog.Fragment) error {
	if err := m.sys.RegisterFragment(f); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	counts, err := m.evalExtent(f)
	if err != nil {
		return err
	}
	if err := m.sys.Materialize(f.Name, support(counts)); err != nil {
		return err
	}
	m.adopt(f, counts)
	return nil
}

// adopt installs a fragment's recomputed count table and incremental
// statistics. Caller holds m.mu.
func (m *Maintainer) adopt(f *catalog.Fragment, counts map[string]*counted) {
	st := &fragState{frag: f, counts: counts, inc: stats.NewIncremental(f.View.Def.Head.Arity())}
	for _, c := range counts {
		st.inc.Add(c.t, 1) // statistics mirror the stored support set
	}
	m.frags[f.Name] = st
}

// evalExtent computes a fragment's full extent (derivation counts) from
// the current base state. Every body predicate must have a defined base
// relation: silently treating an unseeded predicate as empty would adopt
// a fragment with zeroed counts and statistics while its store holds
// rows — drift that only surfaces much later. Caller holds m.mu.
func (m *Maintainer) evalExtent(f *catalog.Fragment) (map[string]*counted, error) {
	def := f.View.Def
	roles := make([]atomRole, len(def.Body))
	for j, a := range def.Body {
		if _, ok := m.base[a.Pred]; !ok {
			return nil, fmt.Errorf("maintain: fragment %q mentions base relation %q, which was never seeded or defined", f.Name, a.Pred)
		}
		roles[j] = m.baseRole(a.Pred)
	}
	acc := map[string]*counted{}
	if err := evalCounted(def.Head, def.Body, roles, acc); err != nil {
		return nil, err
	}
	for k, c := range acc {
		if c.n < 0 {
			return nil, fmt.Errorf("maintain: negative extent count for %s", c.t)
		}
		if c.n == 0 {
			delete(acc, k)
		}
	}
	return acc, nil
}

// baseRole reads a base predicate's current state (empty when undefined).
func (m *Maintainer) baseRole(pred string) atomRole {
	return atomRole{label: pred, rows: func() []value.Tuple {
		if rel, ok := m.base[pred]; ok {
			return countedRows(rel.rows)
		}
		return nil
	}}
}

// InsertInto implements core.DML: rows are added to the base multiset and
// every fragment mentioning pred is incrementally maintained.
func (m *Maintainer) InsertInto(pred string, rows []value.Tuple) (*core.DMLReport, error) {
	return m.write(pred, rows, +1)
}

// DeleteFrom implements core.DML: each row must currently exist in the
// base multiset (at its batch multiplicity) or the whole batch fails
// before any state changes.
func (m *Maintainer) DeleteFrom(pred string, rows []value.Tuple) (*core.DMLReport, error) {
	return m.write(pred, rows, -1)
}

func (m *Maintainer) write(pred string, rows []value.Tuple, sign int64) (*core.DMLReport, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: empty batch for %q", core.ErrBadWrite, pred)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rel, ok := m.base[pred]
	if !ok {
		return nil, fmt.Errorf("%w: %q", core.ErrUnknownRelation, pred)
	}
	for _, r := range rows {
		if len(r) != rel.arity {
			return nil, fmt.Errorf("%w: base %q expects arity %d, got row of %d", core.ErrBadWrite, pred, rel.arity, len(r))
		}
	}

	// Aggregate the batch into a signed delta multiset.
	delta := map[string]*counted{}
	for _, r := range rows {
		addCount(delta, r, sign)
	}
	if sign < 0 {
		for k, d := range delta {
			if have := rel.rows[k]; have == nil || have.n < -d.n {
				return nil, fmt.Errorf("%w: delete of absent tuple %s from %q", core.ErrBadWrite, d.t, pred)
			}
		}
	}

	// Snapshot the OLD state of pred only where a fragment's body mentions
	// it more than once (the telescoping semi-naive sum needs old and new
	// sides simultaneously); single-occurrence bodies — the common case —
	// skip the copy.
	var oldRows map[string]*counted
	for _, st := range m.frags {
		if occurrences(st.frag.View.Def.Body, pred) > 1 {
			oldRows = make(map[string]*counted, len(rel.rows))
			for k, c := range rel.rows {
				oldRows[k] = &counted{t: c.t, n: c.n}
			}
			break
		}
	}

	// Apply the delta to the base multiset (fragment evaluations below see
	// NEW base state for other predicates and for already-processed
	// occurrences). If a fragment evaluation fails before anything is
	// applied to a store, this is rolled back so base and fragments stay
	// mutually consistent.
	applyBase := func(sign int64) {
		for k, d := range delta {
			c := rel.rows[k]
			if c == nil {
				rel.rows[k] = &counted{t: d.t.Clone(), n: sign * d.n}
				continue
			}
			c.n += sign * d.n
			if c.n == 0 {
				delete(rel.rows, k)
			}
		}
	}
	applyBase(+1)

	// Per-write render cache: the counted-row rendering of each (fixed,
	// post-delta) base relation, the delta and the old snapshot are built
	// at most once per write, not once per fragment evaluation.
	rendered := map[string][]value.Tuple{}
	cachedBase := func(pred string) atomRole {
		return atomRole{label: pred, rows: func() []value.Tuple {
			if rows, ok := rendered[pred]; ok {
				return rows
			}
			var rows []value.Tuple
			if br, ok := m.base[pred]; ok {
				rows = countedRows(br.rows)
			}
			rendered[pred] = rows
			return rows
		}}
	}
	var deltaRendered, oldRendered []value.Tuple
	deltaRole := atomRole{label: "Δ" + pred, rows: func() []value.Tuple {
		if deltaRendered == nil {
			deltaRendered = countedRows(delta)
		}
		return deltaRendered
	}}
	oldRole := atomRole{label: pred + "·old", rows: func() []value.Tuple {
		if oldRendered == nil {
			oldRendered = countedRows(oldRows)
		}
		return oldRendered
	}}

	// Per-fragment deltas: semi-naive substitution per occurrence of pred.
	// Count tables are NOT touched yet — pending changes commit only after
	// the fragment's store apply succeeds, so a mid-write failure never
	// leaves counts claiming tuples a store does not hold.
	rep := &core.DMLReport{Predicate: pred, Rows: len(rows), Fragments: map[string]core.FragmentDelta{}}
	type pendingCount struct {
		k    string
		t    value.Tuple
		next int64
	}
	type fragDelta struct {
		st         *fragState
		pending    []pendingCount
		adds, dels []value.Tuple
	}
	var work []*fragDelta
	for _, name := range m.trackedNames() {
		st := m.frags[name]
		def := st.frag.View.Def
		if occurrences(def.Body, pred) == 0 {
			continue
		}
		// Telescoping semi-naive sum over the occurrences of pred: the
		// i-th term substitutes Δ for occurrence i, NEW state (the already
		// updated base) for earlier occurrences and OLD state for later
		// ones, so self-join cross terms are counted exactly once.
		acc := map[string]*counted{}
		evalErr := func() error {
			for i := range def.Body {
				if def.Body[i].Pred != pred {
					continue
				}
				roles := make([]atomRole, len(def.Body))
				for j, a := range def.Body {
					switch {
					case j == i:
						roles[j] = deltaRole
					case a.Pred == pred && j > i:
						roles[j] = oldRole
					default:
						roles[j] = cachedBase(a.Pred)
					}
				}
				if err := evalCounted(def.Head, def.Body, roles, acc); err != nil {
					return err
				}
			}
			return nil
		}()
		if evalErr != nil {
			applyBase(-1) // nothing applied anywhere: undo the base change
			return nil, evalErr
		}

		fd := &fragDelta{st: st}
		for k, c := range acc {
			if c.n == 0 {
				continue
			}
			have := int64(0)
			if e := st.counts[k]; e != nil {
				have = e.n
			}
			next := have + c.n
			if next < 0 {
				applyBase(-1)
				return nil, fmt.Errorf("maintain: fragment %q count for %s would go negative", st.frag.Name, c.t)
			}
			fd.pending = append(fd.pending, pendingCount{k: k, t: c.t, next: next})
			switch {
			case have == 0 && next > 0:
				fd.adds = append(fd.adds, c.t)
			case have > 0 && next == 0:
				fd.dels = append(fd.dels, c.t)
			}
		}
		rep.Fragments[st.frag.Name] = core.FragmentDelta{Added: len(fd.adds), Removed: len(fd.dels)}
		if len(fd.pending) > 0 {
			work = append(work, fd)
		}
	}

	// Fan the appliers out: one goroutine per fragment with a non-empty
	// delta, each serialized on its fragment's applyMu. Store writes use
	// native APIs and never block concurrent readers beyond the store's
	// own short critical sections. Counts and statistics commit only on
	// success.
	errs := make([]error, len(work))
	var wg sync.WaitGroup
	for i, fd := range work {
		wg.Add(1)
		go func(i int, fd *fragDelta) {
			defer wg.Done()
			fd.st.applyMu.Lock()
			defer fd.st.applyMu.Unlock()
			if err := m.sys.ApplyFragmentDelta(fd.st.frag.Name, fd.adds, fd.dels); err != nil {
				errs[i] = err
				return
			}
			for _, p := range fd.pending {
				if p.next == 0 {
					delete(fd.st.counts, p.k)
				} else if e := fd.st.counts[p.k]; e != nil {
					e.n = p.next
				} else {
					fd.st.counts[p.k] = &counted{t: p.t, n: p.next}
				}
			}
			for _, t := range fd.adds {
				fd.st.inc.Add(t, 1)
			}
			for _, t := range fd.dels {
				fd.st.inc.Remove(t, 1)
			}
			errs[i] = m.sys.Catalog.SetStats(fd.st.frag.Name, fd.st.inc.Stats())
		}(i, fd)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// A failed apply (store drift, store failure) must not leave a
			// half-committed write whose error invites a double-applying
			// retry: undo the base change and rebuild EVERY affected
			// fragment against the restored base, so the returned error
			// means "nothing happened". The resync path is heavyweight
			// (full extent read and diff) but only runs on this rare
			// failure path.
			applyBase(-1)
			for _, fd := range work {
				fd.st.applyMu.Lock()
				rerr := m.resyncLocked(fd.st)
				fd.st.applyMu.Unlock()
				if rerr != nil {
					return nil, fmt.Errorf("%w (rollback resync of %q also failed: %v)", err, fd.st.frag.Name, rerr)
				}
			}
			return nil, err
		}
	}
	return rep, nil
}

// resyncLocked recomputes one fragment from the current base state and
// brings its container to that extent (System.ReloadFragment applies the
// difference) — the recovery path when a delta apply fails partway. Caller holds m.mu and the fragment's applyMu; state is
// replaced in place (never through the frags map, which concurrent
// appliers read).
func (m *Maintainer) resyncLocked(st *fragState) error {
	counts, err := m.evalExtent(st.frag)
	if err != nil {
		return err
	}
	if err := m.sys.ReloadFragment(st.frag.Name, support(counts)); err != nil {
		return err
	}
	st.counts = counts
	st.inc = stats.NewIncremental(st.frag.View.Def.Head.Arity())
	for _, c := range counts {
		st.inc.Add(c.t, 1)
	}
	return m.sys.Catalog.SetStats(st.frag.Name, st.inc.Stats())
}

// Recompute re-materializes a fragment from scratch: its extent is
// re-evaluated from the current base state, the physical container is
// brought to that extent by applying the difference to what it stores,
// and counts/statistics reset. This is the maintenance
// baseline incremental deltas are measured against, and the recovery path
// for drift.
func (m *Maintainer) Recompute(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.frags[name]
	if !ok {
		return fmt.Errorf("maintain: fragment %q is not tracked", name)
	}
	st.applyMu.Lock()
	defer st.applyMu.Unlock()
	return m.resyncLocked(st)
}

// FragmentCounts returns a copy of a fragment's derivation-count table
// (tuple → count), for verification and tests.
func (m *Maintainer) FragmentCounts(name string) map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.frags[name]
	if !ok {
		return nil
	}
	out := make(map[string]int64, len(st.counts))
	for k, c := range st.counts {
		out[k] = c.n
	}
	return out
}

// trackedNames returns tracked fragment names sorted, for deterministic
// evaluation order.
func (m *Maintainer) trackedNames() []string {
	names := make([]string, 0, len(m.frags))
	for n := range m.frags {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// occurrences counts body atoms over pred.
func occurrences(body []pivot.Atom, pred string) int {
	n := 0
	for _, a := range body {
		if a.Pred == pred {
			n++
		}
	}
	return n
}

// addCount folds one signed row into a counted multiset.
func addCount(ms map[string]*counted, t value.Tuple, n int64) {
	k := t.Key()
	if c, ok := ms[k]; ok {
		c.n += n
		if c.n == 0 {
			delete(ms, k)
		}
		return
	}
	ms[k] = &counted{t: t, n: n}
}

// support renders a count table's support set as a sorted row slice.
func support(counts map[string]*counted) []value.Tuple {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]value.Tuple, 0, len(keys))
	for _, k := range keys {
		out = append(out, counts[k].t)
	}
	return out
}
