package core

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/value"
)

// Write-path sentinels. The service layer and HTTP front end map these to
// structured client errors; the maintenance layer wraps them with detail.
var (
	// ErrNoDML: the system has no attached write front door (no
	// maintainer), so InsertInto/DeleteFrom cannot run.
	ErrNoDML = errors.New("estocada: writes are not enabled (no maintenance layer attached)")
	// ErrUnknownRelation: DML targeted a base predicate the maintenance
	// layer does not manage.
	ErrUnknownRelation = errors.New("estocada: unknown base relation")
	// ErrBadWrite: structurally invalid DML (arity mismatch, empty batch,
	// delete of an absent tuple).
	ErrBadWrite = errors.New("estocada: invalid write")
)

// FragmentDelta reports the physical change one write applied to one
// fragment.
type FragmentDelta struct {
	// Added and Removed count the store tuples inserted into / deleted
	// from the fragment's container.
	Added, Removed int
}

// DMLReport describes one applied write batch.
type DMLReport struct {
	// Predicate is the written base relation.
	Predicate string
	// Rows is the number of base rows inserted or deleted.
	Rows int
	// Fragments is the per-fragment applied delta (fragments whose
	// definition does not mention the predicate are absent).
	Fragments map[string]FragmentDelta
}

// DML is the write front door contract the maintenance layer implements:
// given base-relation rows, compute count-annotated deltas for every
// registered fragment whose definition mentions the predicate and apply
// them through the stores' native write APIs.
type DML interface {
	InsertInto(pred string, rows []value.Tuple) (*DMLReport, error)
	DeleteFrom(pred string, rows []value.Tuple) (*DMLReport, error)
}

// SetDML attaches the write front door (called by maintain.New).
func (s *System) SetDML(d DML) {
	s.mu.Lock()
	s.dml = d
	s.mu.Unlock()
}

func (s *System) getDML() (DML, error) {
	s.mu.Lock()
	d := s.dml
	s.mu.Unlock()
	if d == nil {
		return nil, ErrNoDML
	}
	return d, nil
}

// InsertInto inserts rows into a base collection, incrementally
// maintaining every fragment derived from it. Plans, prepared statements
// and cached rewritings stay valid: only the data epoch advances.
func (s *System) InsertInto(pred string, rows ...value.Tuple) (*DMLReport, error) {
	d, err := s.getDML()
	if err != nil {
		return nil, err
	}
	return d.InsertInto(pred, rows)
}

// DeleteFrom deletes rows from a base collection (each row must currently
// exist), incrementally maintaining every fragment derived from it.
func (s *System) DeleteFrom(pred string, rows ...value.Tuple) (*DMLReport, error) {
	d, err := s.getDML()
	if err != nil {
		return nil, err
	}
	return d.DeleteFrom(pred, rows)
}

// DataEpoch returns the current data generation. It advances on every
// applied DML delta and fragment reload; the catalog epoch (CacheEpoch)
// does not, so plan-level caches stay warm across writes.
func (s *System) DataEpoch() uint64 { return s.dataEpoch.Load() }

// ApplyFragmentDelta applies a computed maintenance delta to a fragment's
// physical container through the owning store's native write API: adds are
// inserted, dels removed tuple-by-tuple. It deliberately does NOT
// invalidate the plan cache or bump the catalog epoch — the fragment set
// and plan shapes are unchanged — and instead advances the data epoch.
// Rows must match the fragment's head arity; a delete that finds no
// matching stored tuple reports drift between the maintenance layer's
// count table and the store.
func (s *System) ApplyFragmentDelta(name string, adds, dels []value.Tuple) error {
	f, ok := s.Catalog.Get(name)
	if !ok {
		return fmt.Errorf("estocada: no fragment %q", name)
	}
	arity := f.View.Def.Head.Arity()
	for _, r := range adds {
		if len(r) != arity {
			return fmt.Errorf("%w: fragment %q expects arity %d, got add of %d", ErrBadWrite, name, arity, len(r))
		}
	}
	for _, r := range dels {
		if len(r) != arity {
			return fmt.Errorf("%w: fragment %q expects arity %d, got delete of %d", ErrBadWrite, name, arity, len(r))
		}
	}
	if err := s.applyDelta(f, adds, dels); err != nil {
		return err
	}
	s.dataEpoch.Add(1)
	return nil
}

func (s *System) applyDelta(f *catalog.Fragment, adds, dels []value.Tuple) error {
	switch f.Layout.Kind {
	case catalog.LayoutRel:
		st, ok := s.Stores.Rel[f.Store]
		if !ok {
			return fmt.Errorf("estocada: no relational store %q", f.Store)
		}
		if err := st.InsertMany(f.Layout.Collection, adds); err != nil {
			return err
		}
		// Batched delete: one copy-on-write pass and one index rebuild for
		// the whole delta. The maintainer keeps stored tuples distinct, so
		// fewer removals than requested tuples means drift.
		n, err := st.DeleteMany(f.Layout.Collection, dels)
		if err != nil {
			return err
		}
		if n < len(dels) {
			return driftErrN(f.Name, len(dels), n)
		}
		return nil

	case catalog.LayoutPar:
		st, ok := s.Stores.Par[f.Store]
		if !ok {
			return fmt.Errorf("estocada: no parallel store %q", f.Store)
		}
		if err := st.InsertMany(f.Layout.Collection, adds); err != nil {
			return err
		}
		n, err := st.DeleteMany(f.Layout.Collection, dels)
		if err != nil {
			return err
		}
		if n < len(dels) {
			return driftErrN(f.Name, len(dels), n)
		}
		return nil

	case catalog.LayoutKV:
		st, ok := s.Stores.KV[f.Store]
		if !ok {
			return fmt.Errorf("estocada: no key-value store %q", f.Store)
		}
		for _, r := range adds {
			if err := st.Append(f.Layout.Collection, translate.KVKey(r[f.Layout.KeyCol]), r); err != nil {
				return err
			}
		}
		for _, r := range dels {
			n, err := st.DeleteTuple(f.Layout.Collection, translate.KVKey(r[f.Layout.KeyCol]), r)
			if err != nil {
				return err
			}
			if n == 0 {
				return driftErr(f.Name, r)
			}
		}
		return nil

	case catalog.LayoutDoc:
		st, ok := s.Stores.Doc[f.Store]
		if !ok {
			return fmt.Errorf("estocada: no document store %q", f.Store)
		}
		for _, r := range adds {
			d, err := docFromPaths(f.Layout.DocPaths, r)
			if err != nil {
				return err
			}
			if err := st.Insert(f.Layout.Collection, d); err != nil {
				return err
			}
		}
		// Batched delete: one collection pass and one index rebuild for
		// the whole delta (per-tuple Delete would rescan per tuple).
		n, err := st.DeleteTuples(f.Layout.Collection, f.Layout.DocPaths, dels)
		if err != nil {
			return err
		}
		if n < len(dels) {
			return driftErrN(f.Name, len(dels), n)
		}
		return nil

	case catalog.LayoutText:
		st, ok := s.Stores.Text[f.Store]
		if !ok {
			return fmt.Errorf("estocada: no full-text store %q", f.Store)
		}
		for _, r := range adds {
			doc := make(map[string]value.Value, len(f.Layout.Columns))
			for i, col := range f.Layout.Columns {
				doc[col] = r[i]
			}
			if err := st.Insert(f.Layout.Collection, doc); err != nil {
				return err
			}
		}
		// Batched delete: one collection pass and one posting/index
		// rebuild for the whole delta.
		if len(dels) > 0 {
			criteria := make([]map[string]value.Value, len(dels))
			for di, r := range dels {
				doc := make(map[string]value.Value, len(f.Layout.Columns))
				for i, col := range f.Layout.Columns {
					doc[col] = r[i]
				}
				criteria[di] = doc
			}
			n, err := st.DeleteMany(f.Layout.Collection, criteria)
			if err != nil {
				return err
			}
			if n < len(dels) {
				return driftErrN(f.Name, len(dels), n)
			}
		}
		return nil

	default:
		return fmt.Errorf("estocada: unsupported layout %v", f.Layout.Kind)
	}
}

func driftErr(frag string, r value.Tuple) error {
	return fmt.Errorf("estocada: fragment %q drift: delete of %s found no stored tuple", frag, r)
}

func driftErrN(frag string, want, got int) error {
	return fmt.Errorf("estocada: fragment %q drift: delta deleted %d stored tuples, expected %d", frag, got, want)
}

// ReloadFragment makes a fragment's physical contents equal the given
// rows and records fresh statistics. It reads the stored extent, diffs it
// against rows by tuple key and applies the difference through the same
// store writes as ApplyFragmentDelta, so concurrent readers see no more
// than an ordinary write shows them (the container is never dropped). A
// missing container is created first. This is the full re-materialization
// path (the baseline incremental maintenance is measured against, and the
// recovery path when drift is detected). Like ApplyFragmentDelta it is a
// data-only change: the data epoch advances, the catalog epoch does not.
func (s *System) ReloadFragment(name string, rows []value.Tuple) error {
	f, ok := s.Catalog.Get(name)
	if !ok {
		return fmt.Errorf("estocada: no fragment %q", name)
	}
	arity := f.View.Def.Head.Arity()
	for _, r := range rows {
		if len(r) != arity {
			return fmt.Errorf("%w: fragment %q expects arity %d, got row of %d", ErrBadWrite, name, arity, len(r))
		}
	}
	if err := s.load(f, nil); err != nil {
		return err
	}
	cur, err := s.fragmentExtent(f)
	if err != nil {
		return err
	}
	// Multiset difference: stored tuples the target lacks are deleted,
	// target tuples the store lacks are added.
	want := make(map[string]int, len(rows))
	for _, r := range rows {
		want[r.Key()]++
	}
	var dels []value.Tuple
	for _, r := range cur {
		k := r.Key()
		if want[k] > 0 {
			want[k]--
		} else {
			dels = append(dels, r)
		}
	}
	var adds []value.Tuple
	for _, r := range rows {
		k := r.Key()
		if want[k] > 0 {
			want[k]--
			adds = append(adds, r)
		}
	}
	if err := s.applyDelta(f, adds, dels); err != nil {
		return err
	}
	if err := s.Catalog.SetStats(name, stats.Collect(rows)); err != nil {
		return err
	}
	s.dataEpoch.Add(1)
	return nil
}

// FragmentRows reads back a fragment's full stored contents — the
// administrative read used by maintenance verification and bootstrap,
// never by query plans (it bypasses access-pattern restrictions: a
// key-value fragment is enumerated via the store's maintenance dump).
// Column order is the view's head order.
func (s *System) FragmentRows(name string) ([]value.Tuple, error) {
	f, ok := s.Catalog.Get(name)
	if !ok {
		return nil, fmt.Errorf("estocada: no fragment %q", name)
	}
	return s.fragmentExtent(f)
}
