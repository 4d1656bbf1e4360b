package relstore

import (
	"context"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

// QueryBatchCounted evaluates a delegated conjunctive query (selections,
// projections, equi-joins) entirely inside the store, as a relational DMS
// would. One request is counted regardless of how many tables participate
// (the accesses within one delegated query are not separate round-trips).
func (s *Store) QueryBatchCounted(ctx context.Context, q engine.DQuery, extra *engine.Counters) (engine.BatchIterator, error) {
	tally := engine.NewTally(s.Counters(), extra)
	tally.AddRequest()
	if err := s.Enter(ctx); err != nil {
		return nil, err
	}
	it, err := engine.EvalDelegate(q, func(collection string, filters []engine.EqFilter) ([]value.Tuple, error) {
		t, err := s.Table(collection)
		if err != nil {
			return nil, err
		}
		base, rest := s.access(t, filters, tally)
		if len(rest) == 0 {
			return base, nil
		}
		var rows []value.Tuple
		for _, row := range base {
			if engine.MatchAll(row, rest) {
				rows = append(rows, row)
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return s.Fault().WrapBatch(it), nil
}
