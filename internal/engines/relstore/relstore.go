// Package relstore is ESTOCADA's relational storage substrate — the
// in-process stand-in for the Postgres cluster of the paper's scenario. It
// provides named tables of fixed-width tuples, full scans, secondary hash
// indexes, equality selections with automatic index selection, projections,
// and native multi-table conjunctive (equi-join) query evaluation, since
// relational stores accept whole delegated subqueries.
package relstore

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

// Store is one relational database instance.
type Store struct {
	engine.Base
	mu     sync.RWMutex
	tables map[string]*Table
}

// New creates an empty relational store.
func New(name string) *Store {
	s := &Store{tables: map[string]*Table{}}
	s.Init(name)
	return s
}

// Kind implements engine.Engine.
func (s *Store) Kind() string { return "relational" }

// Capabilities implements engine.Engine.
func (s *Store) Capabilities() engine.Capability {
	return engine.CapScan | engine.CapKeyLookup | engine.CapFilter |
		engine.CapProject | engine.CapJoin
}

// Table is one relation with optional secondary indexes.
type Table struct {
	name    string
	columns []string
	colPos  map[string]int
	rows    []value.Tuple
	// indexes maps an indexed column position to key→row indices.
	indexes map[int]map[string][]int
}

// CreateTable registers a new table with the given column names.
func (s *Store) CreateTable(name string, columns ...string) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("relstore %s: table %q exists", s.Name(), name)
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("relstore %s: table %q needs at least one column", s.Name(), name)
	}
	t := &Table{
		name:    name,
		columns: append([]string(nil), columns...),
		colPos:  map[string]int{},
		indexes: map[int]map[string][]int{},
	}
	for i, c := range columns {
		if _, dup := t.colPos[c]; dup {
			return nil, fmt.Errorf("relstore %s: table %q duplicate column %q", s.Name(), name, c)
		}
		t.colPos[c] = i
	}
	s.tables[name] = t
	return t, nil
}

// Table returns a table by name.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("relstore %s: no table %q", s.Name(), name)
	}
	return t, nil
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

// DropTable removes a table.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("relstore %s: no table %q", s.Name(), name)
	}
	delete(s.tables, name)
	return nil
}

// Columns returns the table's column names.
func (t *Table) Columns() []string { return append([]string(nil), t.columns...) }

// Len returns the row count.
func (t *Table) Len() int { return len(t.rows) }

// ColumnPos resolves a column name to its position.
func (t *Table) ColumnPos(col string) (int, error) {
	p, ok := t.colPos[col]
	if !ok {
		return 0, fmt.Errorf("relstore: table %q has no column %q", t.name, col)
	}
	return p, nil
}

// Insert appends a row; its width must match the schema. Indexes are
// maintained.
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
		return fmt.Errorf("relstore %s: table %q expects %d columns, got %d",
			s.Name(), table, len(t.columns), len(row))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := len(t.rows)
	t.rows = append(t.rows, row.Clone())
	for pos, ix := range t.indexes {
		k := row[pos].Key()
		ix[k] = append(ix[k], idx)
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

// Delete removes every row equal to the given tuple and returns how many
// were removed. The surviving rows are rebuilt into a fresh backing slice
// (copy-on-write) and indexes are rebuilt against it, so iterators opened
// before the delete keep reading their own consistent snapshot — a delete
// never mutates storage an open cursor may still be scanning.
func (s *Store) Delete(table string, row value.Tuple) (int, error) {
	if err := s.Fault().BeforeWrite(); err != nil {
		return 0, err
	}
	t, err := s.Table(table)
	if err != nil {
		return 0, err
	}
	if len(row) != len(t.columns) {
		return 0, fmt.Errorf("relstore %s: table %q expects %d columns, got %d",
			s.Name(), table, len(t.columns), len(row))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := make([]value.Tuple, 0, len(t.rows))
	removed := 0
	for _, r := range t.rows {
		if value.Equal(r, row) {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	if removed == 0 {
		return 0, nil
	}
	t.rows = kept
	t.rebuildIndexes()
	return removed, nil
}

// DeleteMany removes every row equal to ANY of the given tuples in one
// copy-on-write pass with a single index rebuild — the batched form the
// maintenance layer uses, since per-tuple Delete would re-copy the table
// once per tuple. Returns the total number of rows removed.
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
	victims := make(map[string]struct{}, len(rows))
	for _, r := range rows {
		if len(r) != len(t.columns) {
			return 0, fmt.Errorf("relstore %s: table %q expects %d columns, got %d",
				s.Name(), table, len(t.columns), len(r))
		}
		victims[r.Key()] = struct{}{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := make([]value.Tuple, 0, len(t.rows))
	removed := 0
	var keyBuf []byte
	for _, r := range t.rows {
		keyBuf = value.AppendKey(keyBuf[:0], r)
		if _, hit := victims[string(keyBuf)]; hit {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	if removed == 0 {
		return 0, nil
	}
	t.rows = kept
	t.rebuildIndexes()
	return removed, nil
}

// rebuildIndexes recomputes every secondary index from t.rows. Callers hold
// the store write lock. Fresh maps are installed (never mutated in place)
// for the same copy-on-write reason as Delete.
func (t *Table) rebuildIndexes() {
	for pos := range t.indexes {
		ix := map[string][]int{}
		for i, row := range t.rows {
			k := row[pos].Key()
			ix[k] = append(ix[k], i)
		}
		t.indexes[pos] = ix
	}
}

// CreateIndex builds a secondary hash index on a column.
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
		return nil // idempotent
	}
	ix := map[string][]int{}
	for i, row := range t.rows {
		k := row[pos].Key()
		ix[k] = append(ix[k], i)
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

// access picks the access path for equality filters on one table: the
// first filter whose column is indexed serves the base rows from that
// index (one lookup); without one the whole table is the base (one scan).
// It returns the base rows, which callers must not mutate, and the
// residual filters: every filter except the one the index served, skipped
// by position so that a second filter on the indexed column still applies.
func (s *Store) access(t *Table, filters []engine.EqFilter, tally engine.Tally) (base []value.Tuple, rest []engine.EqFilter) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, f := range filters {
		ix, ok := t.indexes[f.Col]
		if !ok {
			continue
		}
		tally.AddLookup()
		rowIdx := ix[f.Val.Key()]
		base = make([]value.Tuple, len(rowIdx))
		for j, ri := range rowIdx {
			base[j] = t.rows[ri]
		}
		rest = make([]engine.EqFilter, 0, len(filters)-1)
		rest = append(rest, filters[:i]...)
		return base, append(rest, filters[i+1:]...)
	}
	tally.AddScan()
	return t.rows, filters
}

// SelectBatchCounted evaluates equality filters with projection, using an
// index when one covers some filter column, otherwise a scan. Tuple counts
// are tallied once per batch.
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
	base, rest := s.access(t, filters, tally)
	var it engine.BatchIterator = &engine.BatchFilter{In: engine.NewSliceBatchIterator(base), Filters: rest}
	if project != nil {
		it = &engine.BatchProject{In: it, Cols: project}
	}
	return s.Fault().WrapBatch(&engine.CountingBatchIterator{In: it, T: tally}), nil
}
