// Package parstore is ESTOCADA's massively-parallel storage substrate — the
// stand-in for the Spark cluster of the paper's scenario. Tables are
// hash-partitioned over a configurable number of partitions; delegated
// scans, filters and projections run one worker goroutine per partition, so
// "the delegated subquery will be evaluated in parallel fashion, allowing
// ESTOCADA to leverage its efficiency" (paper §III).
//
// Columns may hold nested values (value.List of tuples), which is how the
// scenario's materialized join of past purchases with browsing history is
// stored as a nested relation indexed by user ID and product category.
package parstore

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

// Store is one partitioned parallel store instance.
type Store struct {
	engine.Base
	partitions int
	mu         sync.RWMutex
	tables     map[string]*Table
}

// New creates a parallel store with the given partition count (≥1).
func New(name string, partitions int) *Store {
	if partitions < 1 {
		partitions = 1
	}
	s := &Store{partitions: partitions, tables: map[string]*Table{}}
	s.Init(name)
	return s
}

// Kind implements engine.Engine.
func (s *Store) Kind() string { return "parallel" }

// Capabilities implements engine.Engine.
func (s *Store) Capabilities() engine.Capability {
	return engine.CapScan | engine.CapKeyLookup | engine.CapFilter |
		engine.CapProject | engine.CapJoin | engine.CapNested | engine.CapParallel
}

// Partitions returns the configured parallelism.
func (s *Store) Partitions() int { return s.partitions }

// Table is a hash-partitioned relation. Rows are assigned to partitions by
// the hash of the partition column (column 0 by default).
type Table struct {
	name    string
	columns []string
	colPos  map[string]int
	partCol int
	parts   [][]value.Tuple
	// indexes maps column position → key → (partition, offset) pairs.
	indexes map[int]map[string][]rowRef
}

type rowRef struct{ part, off int }

// CreateTable registers a partitioned table; partitionColumn selects the
// hash column (must be one of columns).
func (s *Store) CreateTable(name, partitionColumn string, columns ...string) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("parstore %s: table %q exists", s.Name(), name)
	}
	t := &Table{
		name:    name,
		columns: append([]string(nil), columns...),
		colPos:  map[string]int{},
		parts:   make([][]value.Tuple, s.partitions),
		indexes: map[int]map[string][]rowRef{},
	}
	for i, c := range columns {
		t.colPos[c] = i
	}
	pc, ok := t.colPos[partitionColumn]
	if !ok {
		return nil, fmt.Errorf("parstore %s: partition column %q not in schema", s.Name(), partitionColumn)
	}
	t.partCol = pc
	s.tables[name] = t
	return t, nil
}

// Table returns a table by name.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("parstore %s: no table %q", s.Name(), name)
	}
	return t, nil
}

// DropTable removes a table.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("parstore %s: no table %q", s.Name(), name)
	}
	delete(s.tables, name)
	return nil
}

// Tables lists table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Columns returns the table's column names.
func (t *Table) Columns() []string { return append([]string(nil), t.columns...) }

// Len returns the total row count across partitions.
func (t *Table) Len() int {
	n := 0
	for _, p := range t.parts {
		n += len(p)
	}
	return n
}

// ColumnPos resolves a column name.
func (t *Table) ColumnPos(col string) (int, error) {
	p, ok := t.colPos[col]
	if !ok {
		return 0, fmt.Errorf("parstore: table %q has no column %q", t.name, col)
	}
	return p, nil
}

func hashPartition(v value.Value, parts int) int {
	h := fnv.New32a()
	h.Write([]byte(v.Key()))
	return int(h.Sum32()) % parts
}

// Insert adds a row to the partition selected by the partition column.
func (s *Store) Insert(table string, row value.Tuple) error {
	if err := s.Fault().BeforeWrite(); err != nil {
		return err
	}
	return s.insert(table, row)
}

func (s *Store) insert(table string, row value.Tuple) error {
	t, err := s.Table(table)
	if err != nil {
		return err
	}
	if len(row) != len(t.columns) {
		return fmt.Errorf("parstore %s: table %q expects %d columns, got %d",
			s.Name(), table, len(t.columns), len(row))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := hashPartition(row[t.partCol], s.partitions)
	off := len(t.parts[p])
	t.parts[p] = append(t.parts[p], row.Clone())
	for pos, ix := range t.indexes {
		k := row[pos].Key()
		ix[k] = append(ix[k], rowRef{p, off})
	}
	return nil
}

// InsertMany bulk-loads rows. The fault injector is consulted once for
// the whole batch (one delegated write request).
func (s *Store) InsertMany(table string, rows []value.Tuple) error {
	if err := s.Fault().BeforeWrite(); err != nil {
		return err
	}
	for _, r := range rows {
		if err := s.insert(table, r); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes every row equal to the given tuple from its hash
// partition and returns how many were removed. The surviving partition is
// rebuilt into a fresh slice (copy-on-write) and indexes are rebuilt, so
// partition workers of an already-open parallel scan keep iterating their
// own snapshot untouched.
func (s *Store) Delete(table string, row value.Tuple) (int, error) {
	if err := s.Fault().BeforeWrite(); err != nil {
		return 0, err
	}
	t, err := s.Table(table)
	if err != nil {
		return 0, err
	}
	if len(row) != len(t.columns) {
		return 0, fmt.Errorf("parstore %s: table %q expects %d columns, got %d",
			s.Name(), table, len(t.columns), len(row))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := hashPartition(row[t.partCol], s.partitions)
	part := t.parts[p]
	kept := make([]value.Tuple, 0, len(part))
	removed := 0
	for _, r := range part {
		if value.Equal(r, row) {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	if removed == 0 {
		return 0, nil
	}
	t.parts[p] = kept
	t.rebuildIndexes()
	return removed, nil
}

// DeleteMany removes every row equal to ANY of the given tuples: affected
// partitions are rebuilt once each (copy-on-write) and indexes once
// overall — the batched form the maintenance layer uses. Returns the total
// number of rows removed.
func (s *Store) DeleteMany(table string, rows []value.Tuple) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	if err := s.Fault().BeforeWrite(); err != nil {
		return 0, err
	}
	t, err := s.Table(table)
	if err != nil {
		return 0, err
	}
	// Group victims by their hash partition so untouched partitions keep
	// their slices (open scans over them stay zero-cost).
	perPart := map[int]map[string]struct{}{}
	for _, r := range rows {
		if len(r) != len(t.columns) {
			return 0, fmt.Errorf("parstore %s: table %q expects %d columns, got %d",
				s.Name(), table, len(t.columns), len(r))
		}
		p := hashPartition(r[t.partCol], s.partitions)
		v := perPart[p]
		if v == nil {
			v = map[string]struct{}{}
			perPart[p] = v
		}
		v[r.Key()] = struct{}{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	var keyBuf []byte
	for p, victims := range perPart {
		part := t.parts[p]
		kept := make([]value.Tuple, 0, len(part))
		before := removed
		for _, r := range part {
			keyBuf = value.AppendKey(keyBuf[:0], r)
			if _, hit := victims[string(keyBuf)]; hit {
				removed++
				continue
			}
			kept = append(kept, r)
		}
		if removed > before {
			t.parts[p] = kept
		}
	}
	if removed == 0 {
		return 0, nil
	}
	t.rebuildIndexes()
	return removed, nil
}

// rebuildIndexes recomputes every secondary index from the partitions.
// Callers hold the store write lock; fresh maps are installed, never
// mutated in place (copy-on-write, as in Delete).
func (t *Table) rebuildIndexes() {
	for pos := range t.indexes {
		ix := map[string][]rowRef{}
		for p, part := range t.parts {
			for off, row := range part {
				k := row[pos].Key()
				ix[k] = append(ix[k], rowRef{p, off})
			}
		}
		t.indexes[pos] = ix
	}
}

// CreateIndex builds a secondary index on a column (global, across
// partitions).
func (s *Store) CreateIndex(table, column string) error {
	t, err := s.Table(table)
	if err != nil {
		return err
	}
	pos, err := t.ColumnPos(column)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := t.indexes[pos]; ok {
		return nil
	}
	ix := map[string][]rowRef{}
	for p, part := range t.parts {
		for off, row := range part {
			k := row[pos].Key()
			ix[k] = append(ix[k], rowRef{p, off})
		}
	}
	t.indexes[pos] = ix
	return nil
}

// HasIndex reports whether the column is indexed.
func (s *Store) HasIndex(table, column string) bool {
	t, err := s.Table(table)
	if err != nil {
		return false
	}
	pos, err := t.ColumnPos(column)
	if err != nil {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := t.indexes[pos]
	return ok
}

// SelectBatchCounted evaluates filters+projection. If an index covers a
// filter, the lookup is served from the index; otherwise every partition
// is scanned by its own worker goroutine, each shipping whole row slabs
// over the merge channel. Tuple counts are tallied once per shipped slab.
func (s *Store) SelectBatchCounted(ctx context.Context, table string, filters []engine.EqFilter, project []int, extra *engine.Counters) (engine.BatchIterator, error) {
	t, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	tally := engine.NewTally(s.Counters(), extra)
	tally.AddRequest()
	if err := s.Enter(ctx); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()

	// Indexed path.
	for _, f := range filters {
		ix, ok := t.indexes[f.Col]
		if !ok {
			continue
		}
		tally.AddLookup()
		refs := ix[f.Val.Key()]
		rows := make([]value.Tuple, 0, len(refs))
		for _, r := range refs {
			row := t.parts[r.part][r.off]
			if engine.MatchAll(row, filters) {
				rows = append(rows, projectRow(row, project))
			}
		}
		tally.AddTuples(len(rows))
		return s.Fault().WrapBatch(engine.NewSliceBatchIterator(rows)), nil
	}

	// Parallel scan path: one worker per partition, slabs on the channel.
	tally.AddScan()
	out := make(chan []value.Tuple, len(t.parts))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < len(t.parts); p++ {
		wg.Add(1)
		part := t.parts[p]
		go func() {
			defer wg.Done()
			slab := make([]value.Tuple, 0, value.BatchCap)
			for _, row := range part {
				if !engine.MatchAll(row, filters) {
					continue
				}
				slab = append(slab, projectRow(row, project))
				if len(slab) == cap(slab) {
					select {
					case out <- slab:
						tally.AddTuples(len(slab))
					case <-done:
						return
					}
					slab = make([]value.Tuple, 0, value.BatchCap)
				}
			}
			if len(slab) > 0 {
				select {
				case out <- slab:
					tally.AddTuples(len(slab))
				case <-done:
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return s.Fault().WrapBatch(&slabChanBatchIterator{c: out, closed: done}), nil
}

// slabChanBatchIterator adapts a channel of row slabs to the batch
// protocol, carrying leftovers when a slab exceeds the destination.
type slabChanBatchIterator struct {
	c      <-chan []value.Tuple
	closed chan struct{}
	cur    []value.Tuple
	pos    int
	once   bool
}

// NextBatch implements engine.BatchIterator.
func (it *slabChanBatchIterator) NextBatch(dst *value.Batch) (int, error) {
	dst.Reset()
	for !dst.Full() {
		if it.pos < len(it.cur) {
			n := len(it.cur) - it.pos
			if room := dst.Cap() - dst.Len(); n > room {
				n = room
			}
			dst.AppendAll(it.cur[it.pos : it.pos+n])
			it.pos += n
			continue
		}
		if dst.Len() > 0 {
			// Deliver what we have instead of blocking on slow workers.
			return dst.Len(), nil
		}
		slab, ok := <-it.c
		if !ok {
			return dst.Len(), nil
		}
		it.cur, it.pos = slab, 0
	}
	return dst.Len(), nil
}

// Close implements engine.BatchIterator.
func (it *slabChanBatchIterator) Close() {
	if !it.once {
		it.once = true
		if it.closed != nil {
			close(it.closed)
		}
	}
}

func projectRow(row value.Tuple, project []int) value.Tuple {
	if project == nil {
		return row
	}
	out := make(value.Tuple, len(project))
	for i, c := range project {
		if c >= 0 && c < len(row) {
			out[i] = row[c]
		} else {
			out[i] = value.Null{}
		}
	}
	return out
}

// QueryBatchCounted evaluates a delegated conjunctive query natively (the
// parallel store, like Spark, accepts whole subqueries including joins).
// One request is counted however many tables participate.
func (s *Store) QueryBatchCounted(ctx context.Context, q engine.DQuery, extra *engine.Counters) (engine.BatchIterator, error) {
	tally := engine.NewTally(s.Counters(), extra)
	tally.AddRequest()
	if err := s.Enter(ctx); err != nil {
		return nil, err
	}
	it, err := engine.EvalDelegate(q, func(collection string, filters []engine.EqFilter) ([]value.Tuple, error) {
		return s.selectNoRequest(collection, filters, tally)
	})
	if err != nil {
		return nil, err
	}
	return s.Fault().WrapBatch(it), nil
}

// selectNoRequest materializes one table access within a delegated query
// (not a separate round-trip, so no request is counted).
func (s *Store) selectNoRequest(table string, filters []engine.EqFilter, tally engine.Tally) ([]value.Tuple, error) {
	t, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, f := range filters {
		ix, ok := t.indexes[f.Col]
		if !ok {
			continue
		}
		tally.AddLookup()
		refs := ix[f.Val.Key()]
		rows := make([]value.Tuple, 0, len(refs))
		for _, r := range refs {
			row := t.parts[r.part][r.off]
			if engine.MatchAll(row, filters) {
				rows = append(rows, row)
			}
		}
		return rows, nil
	}
	tally.AddScan()
	var rows []value.Tuple
	for _, part := range t.parts {
		for _, row := range part {
			if engine.MatchAll(row, filters) {
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// Aggregate runs a parallel grouped aggregation over a table: rows passing
// the filters are grouped by the groupBy columns, aggregating aggCol with
// the given function per group ("count", "sum", "min", "max"). Each
// partition pre-aggregates locally (combiner), then partials merge — the
// classic map/combine/reduce shape of the BSP systems the paper cites.
func (s *Store) Aggregate(ctx context.Context, table string, filters []engine.EqFilter, groupBy []int, fn string, aggCol int, extra *engine.Counters) (engine.BatchIterator, error) {
	t, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	if fn != "count" && fn != "sum" && fn != "min" && fn != "max" {
		return nil, fmt.Errorf("parstore %s: unsupported aggregate %q", s.Name(), fn)
	}
	tally := engine.NewTally(s.Counters(), extra)
	tally.AddRequest()
	if err := s.Enter(ctx); err != nil {
		return nil, err
	}
	tally.AddScan()
	s.mu.RLock()
	defer s.mu.RUnlock()

	type partial struct {
		keyRow value.Tuple
		count  int64
		sum    float64
		min    value.Value
		max    value.Value
	}
	partials := make([]map[string]*partial, len(t.parts))
	var wg sync.WaitGroup
	for p := range t.parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			local := map[string]*partial{}
			for _, row := range t.parts[p] {
				if !engine.MatchAll(row, filters) {
					continue
				}
				keyRow := projectRow(row, groupBy)
				k := keyRow.Key()
				agg := local[k]
				if agg == nil {
					agg = &partial{keyRow: keyRow}
					local[k] = agg
				}
				agg.count++
				if aggCol >= 0 && aggCol < len(row) {
					v := row[aggCol]
					switch x := v.(type) {
					case value.Int:
						agg.sum += float64(x)
					case value.Float:
						agg.sum += float64(x)
					}
					if agg.min == nil || value.Compare(v, agg.min) < 0 {
						agg.min = v
					}
					if agg.max == nil || value.Compare(v, agg.max) > 0 {
						agg.max = v
					}
				}
			}
			partials[p] = local
		}(p)
	}
	wg.Wait()

	merged := map[string]*partial{}
	for _, local := range partials {
		for k, pa := range local {
			m := merged[k]
			if m == nil {
				merged[k] = pa
				continue
			}
			m.count += pa.count
			m.sum += pa.sum
			if pa.min != nil && (m.min == nil || value.Compare(pa.min, m.min) < 0) {
				m.min = pa.min
			}
			if pa.max != nil && (m.max == nil || value.Compare(pa.max, m.max) > 0) {
				m.max = pa.max
			}
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]value.Tuple, 0, len(merged))
	for _, k := range keys {
		m := merged[k]
		var av value.Value
		switch fn {
		case "count":
			av = value.Int(m.count)
		case "sum":
			av = value.Float(m.sum)
		case "min":
			av = orNull(m.min)
		case "max":
			av = orNull(m.max)
		}
		rows = append(rows, append(m.keyRow.Clone(), av))
	}
	tally.AddTuples(len(rows))
	return s.Fault().WrapBatch(engine.NewSliceBatchIterator(rows)), nil
}

func orNull(v value.Value) value.Value {
	if v == nil {
		return value.Null{}
	}
	return v
}
