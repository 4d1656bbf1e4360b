package core

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/stats"
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
// inserted, dels removed. It deliberately does NOT invalidate the plan
// cache or bump the catalog epoch — the fragment set and plan shapes are
// unchanged — and instead advances the data epoch. Rows must match the
// fragment's head arity; a delete that finds no matching stored tuple
// reports drift between the maintenance layer's count table and the store
// (translate.ErrDrift).
func (s *System) ApplyFragmentDelta(name string, adds, dels []value.Tuple) error {
	f, c, err := s.container(name)
	if err != nil {
		return err
	}
	if err := checkArity(f, adds, dels); err != nil {
		return err
	}
	if err := c.Apply(adds, dels); err != nil {
		return err
	}
	s.dataEpoch.Add(1)
	return nil
}

// checkArity refuses rows that do not match the fragment's head arity.
func checkArity(f *catalog.Fragment, batches ...[]value.Tuple) error {
	arity := f.View.Def.Head.Arity()
	for _, rows := range batches {
		for _, r := range rows {
			if len(r) != arity {
				return fmt.Errorf("%w: fragment %q expects arity %d, got row of %d", ErrBadWrite, f.Name, arity, len(r))
			}
		}
	}
	return nil
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
	f, c, err := s.container(name)
	if err != nil {
		return err
	}
	if err := checkArity(f, rows); err != nil {
		return err
	}
	if err := c.Ensure(); err != nil {
		return err
	}
	cur, err := c.Extent()
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
	if err := c.Apply(adds, dels); err != nil {
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
	_, c, err := s.container(name)
	if err != nil {
		return nil, err
	}
	return c.Extent()
}

// RefreshStats re-collects a fragment's statistics by reading its extent
// from its store (an administrative operation — a key-value fragment is
// enumerated via the store's maintenance dump, the way a production
// system would run ANALYZE during quiet hours). The catalog epoch is
// bumped so cached plans re-cost.
func (s *System) RefreshStats(name string) error {
	rows, err := s.FragmentRows(name)
	if err != nil {
		return err
	}
	if err := s.Catalog.SetStats(name, stats.Collect(rows)); err != nil {
		return err
	}
	s.bumpCatalogEpoch()
	return nil
}

// RefreshAllStats refreshes every registered fragment.
func (s *System) RefreshAllStats() error {
	for _, f := range s.Catalog.All() {
		if err := s.RefreshStats(f.Name); err != nil {
			return err
		}
	}
	return nil
}
