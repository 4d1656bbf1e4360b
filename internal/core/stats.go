package core

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/engines/engine"
	"repro/internal/engines/textstore"
	"repro/internal/stats"
	"repro/internal/value"
)

// RefreshStats re-collects a fragment's statistics by reading its extent
// from its store (an administrative operation — a key-value fragment is
// enumerated via the store's maintenance dump, the way a production
// system would run ANALYZE during quiet hours). The catalog epoch is
// bumped so cached plans re-cost.
func (s *System) RefreshStats(name string) error {
	f, ok := s.Catalog.Get(name)
	if !ok {
		return fmt.Errorf("estocada: no fragment %q", name)
	}
	rows, err := s.fragmentExtent(f)
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

// fragmentExtent reads every tuple of a fragment from its store. It is
// the single administrative read-back shared by statistics refresh,
// maintenance verification, and bootstrap. Accesses go through the
// stores' *BatchCounted variants (with no per-execution cell: these reads
// act on behalf of no query, so only store-global totals move); the
// key-value case uses the store's maintenance dump rather than toggling
// scan permission around a point read path.
func (s *System) fragmentExtent(f *catalog.Fragment) ([]value.Tuple, error) {
	ctx := context.Background()
	switch f.Layout.Kind {
	case catalog.LayoutRel:
		st, ok := s.Stores.Rel[f.Store]
		if !ok {
			return nil, fmt.Errorf("estocada: no relational store %q", f.Store)
		}
		it, err := st.SelectBatchCounted(ctx, f.Layout.Collection, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		return engine.DrainBatches(it)

	case catalog.LayoutPar:
		st, ok := s.Stores.Par[f.Store]
		if !ok {
			return nil, fmt.Errorf("estocada: no parallel store %q", f.Store)
		}
		it, err := st.SelectBatchCounted(ctx, f.Layout.Collection, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		return engine.DrainBatches(it)

	case catalog.LayoutKV:
		st, ok := s.Stores.KV[f.Store]
		if !ok {
			return nil, fmt.Errorf("estocada: no key-value store %q", f.Store)
		}
		return st.Dump(f.Layout.Collection)

	case catalog.LayoutDoc:
		st, ok := s.Stores.Doc[f.Store]
		if !ok {
			return nil, fmt.Errorf("estocada: no document store %q", f.Store)
		}
		it, err := st.FindTuplesBatchCounted(ctx, f.Layout.Collection, nil, f.Layout.DocPaths, nil)
		if err != nil {
			return nil, err
		}
		return engine.DrainBatches(it)

	case catalog.LayoutText:
		st, ok := s.Stores.Text[f.Store]
		if !ok {
			return nil, fmt.Errorf("estocada: no full-text store %q", f.Store)
		}
		it, err := st.SearchBatchCounted(ctx, f.Layout.Collection, textstore.Query{Project: f.Layout.Columns}, nil)
		if err != nil {
			return nil, err
		}
		return engine.DrainBatches(it)

	default:
		return nil, fmt.Errorf("estocada: unsupported layout %v", f.Layout.Kind)
	}
}
