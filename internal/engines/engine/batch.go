package engine

import (
	"repro/internal/value"
)

// The read protocol. Every store read returns a BatchIterator: one virtual
// call delivers up to a whole value.Batch of tuples, amortizing interface
// dispatch, cancellation checks and counter attribution over hundreds of
// rows. There is no row-at-a-time counterpart below exec.Rows.
//
// Every store read also has the same shape, (ctx, …, extra *Counters)
// (BatchIterator, error), and the same contract: it counts one request,
// passes Base.Enter (simulated latency and injected stalls, both
// honouring ctx), fans its counts out through a Tally to the store-global
// Counters and to extra — the caller's per-execution cell, nil for
// store-global counting only — and wraps its stream in Fault.WrapBatch.

// BatchIterator streams tuples in batches. Implementations are
// single-goroutine unless documented otherwise; Close must be idempotent.
type BatchIterator interface {
	// NextBatch resets dst and fills it with up to dst.Cap() rows,
	// returning the number filled. n == 0 with a nil error signals
	// exhaustion. Rows handed out stay valid after further calls (tuples
	// are immutable and never recycled); the dst batch itself belongs to
	// the caller.
	NextBatch(dst *value.Batch) (int, error)
	// Close releases resources.
	Close()
}

// SliceBatchIterator batches an in-memory tuple slice.
type SliceBatchIterator struct {
	rows []value.Tuple
	pos  int
}

// NewSliceBatchIterator wraps rows (not copied).
func NewSliceBatchIterator(rows []value.Tuple) *SliceBatchIterator {
	return &SliceBatchIterator{rows: rows}
}

// NextBatch implements BatchIterator.
func (it *SliceBatchIterator) NextBatch(dst *value.Batch) (int, error) {
	dst.Reset()
	n := len(it.rows) - it.pos
	if n == 0 {
		return 0, nil
	}
	if c := dst.Cap(); n > c {
		n = c
	}
	dst.AppendAll(it.rows[it.pos : it.pos+n])
	it.pos += n
	return n, nil
}

// Close implements BatchIterator.
func (*SliceBatchIterator) Close() {}

// DrainBatches exhausts a batch iterator into a slice (closing it).
func DrainBatches(it BatchIterator) ([]value.Tuple, error) {
	defer it.Close()
	b := value.GetBatch()
	defer value.PutBatch(b)
	var out []value.Tuple
	for {
		n, err := it.NextBatch(b)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, b.Rows()...)
	}
}

// MatchEqCols reports whether a tuple satisfies all column-equality pairs
// — the single shared implementation of residual repeated-variable checks
// (used by exec.Select and the planner's dependent-access fetch path).
//
//lint:hot
func MatchEqCols(t value.Tuple, pairs [][2]int) bool {
	for _, p := range pairs {
		if p[0] >= len(t) || p[1] >= len(t) || !value.Equal(t[p[0]], t[p[1]]) {
			return false
		}
	}
	return true
}

// BatchFilter applies equality filters and column-equality pairs to a
// batch stream by compacting each delivered batch in place (the
// selection-vector technique): no scratch buffer and no second header
// copy per row. Batches it returns may be partially full; fully-filtered
// batches are skipped, not surfaced as spurious exhaustion.
type BatchFilter struct {
	In      BatchIterator
	Filters []EqFilter
	EqCols  [][2]int
}

// NextBatch implements BatchIterator.
func (it *BatchFilter) NextBatch(dst *value.Batch) (int, error) {
	// Fused scan-filter: over a slice-backed input, probe the source rows
	// directly so rejected rows are never copied into a batch at all.
	if s, ok := it.In.(*SliceBatchIterator); ok {
		dst.Reset()
		for s.pos < len(s.rows) && !dst.Full() {
			t := s.rows[s.pos]
			s.pos++
			if MatchAll(t, it.Filters) && MatchEqCols(t, it.EqCols) {
				dst.Append(t)
			}
		}
		return dst.Len(), nil
	}
	for {
		n, err := it.In.NextBatch(dst)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil
		}
		rows := dst.Rows()
		j := 0
		for _, t := range rows {
			if MatchAll(t, it.Filters) && MatchEqCols(t, it.EqCols) {
				rows[j] = t
				j++
			}
		}
		dst.Truncate(j)
		if j > 0 {
			return j, nil
		}
	}
}

// Close implements BatchIterator.
func (it *BatchFilter) Close() { it.In.Close() }

// BatchProject projects column positions batch-at-a-time, rewriting each
// row header in place with a tuple carved from the batch arena (one
// allocation per batch instead of one per row).
type BatchProject struct {
	In   BatchIterator
	Cols []int
}

// NextBatch implements BatchIterator.
func (it *BatchProject) NextBatch(dst *value.Batch) (int, error) {
	n, err := it.In.NextBatch(dst)
	if err != nil || n == 0 {
		return n, err
	}
	rows := dst.Rows()
	for i, t := range rows {
		out := dst.Carve(len(it.Cols))
		for j, c := range it.Cols {
			if c >= 0 && c < len(t) {
				out[j] = t[c]
			} else {
				out[j] = value.Null{}
			}
		}
		rows[i] = out
	}
	return n, nil
}

// Close implements BatchIterator.
func (it *BatchProject) Close() { it.In.Close() }

// CountingBatchIterator tallies tuples as they stream out of a store
// access — once per batch, not once per row (batch-granularity counter
// attribution).
type CountingBatchIterator struct {
	In BatchIterator
	T  Tally
}

// NextBatch implements BatchIterator.
func (it *CountingBatchIterator) NextBatch(dst *value.Batch) (int, error) {
	n, err := it.In.NextBatch(dst)
	if n > 0 {
		it.T.AddTuples(n)
	}
	return n, err
}

// Close implements BatchIterator.
func (it *CountingBatchIterator) Close() { it.In.Close() }
