// Package docstore is ESTOCADA's document storage substrate — the stand-in
// for MongoDB in the paper's scenario. Collections hold JSON-like document
// trees (value.Doc); queries are path-equality filters with optional
// per-path secondary indexes, and results are returned either as documents
// or projected into tuples along a list of paths.
//
// Reading from the document store costs genuine tree-traversal work per
// document, which is why the scenario's key-based workloads gained ~20 % by
// migrating to the key-value store: both are hash lookups, but the document
// store must walk and project trees.
package docstore

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

// Store is one document store instance.
type Store struct {
	engine.Base
	mu    sync.RWMutex
	colls map[string]*collection
}

type collection struct {
	docs []*value.Doc
	// indexes maps an indexed path to scalar-key→doc positions.
	indexes map[string]map[string][]int
}

// New creates an empty document store.
func New(name string) *Store {
	s := &Store{colls: map[string]*collection{}}
	s.Init(name)
	return s
}

// Kind implements engine.Engine.
func (s *Store) Kind() string { return "document" }

// Capabilities implements engine.Engine: scans, path filters, projection,
// nested construction — but no joins.
func (s *Store) Capabilities() engine.Capability {
	return engine.CapScan | engine.CapKeyLookup | engine.CapFilter |
		engine.CapProject | engine.CapNested
}

// CreateCollection registers a collection.
func (s *Store) CreateCollection(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.colls[name]; ok {
		return fmt.Errorf("docstore %s: collection %q exists", s.Name(), name)
	}
	s.colls[name] = &collection{indexes: map[string]map[string][]int{}}
	return nil
}

// DropCollection removes a collection.
func (s *Store) DropCollection(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.colls[name]; !ok {
		return fmt.Errorf("docstore %s: no collection %q", s.Name(), name)
	}
	delete(s.colls, name)
	return nil
}

// Collections lists collection names, sorted.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.colls))
	for n := range s.colls {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (s *Store) coll(name string) (*collection, error) {
	c, ok := s.colls[name]
	if !ok {
		return nil, fmt.Errorf("docstore %s: no collection %q", s.Name(), name)
	}
	return c, nil
}

// Insert appends a document, maintaining indexes.
func (s *Store) Insert(collName string, d *value.Doc) error {
	if err := s.Fault().BeforeWrite(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(collName)
	if err != nil {
		return err
	}
	pos := len(c.docs)
	c.docs = append(c.docs, d)
	for path, ix := range c.indexes {
		if v, ok := d.ScalarAt(path); ok {
			ix[v.Key()] = append(ix[v.Key()], pos)
		}
	}
	return nil
}

// Delete removes every document whose scalars match ALL filters and
// returns how many were removed. A document missing a filter path does not
// match. The surviving documents are rebuilt into a fresh slice
// (copy-on-write) and indexes are rebuilt, so concurrent readers holding
// the previous snapshot are unaffected.
func (s *Store) Delete(collName string, filters []PathFilter) (int, error) {
	if len(filters) == 0 {
		return 0, fmt.Errorf("docstore %s: delete without filters would drop collection %q", s.Name(), collName)
	}
	if err := s.Fault().BeforeWrite(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(collName)
	if err != nil {
		return 0, err
	}
	kept := make([]*value.Doc, 0, len(c.docs))
	removed := 0
	for _, d := range c.docs {
		match := true
		for _, f := range filters {
			v, ok := d.ScalarAt(f.Path)
			if !ok || !value.Equal(v, f.Val) {
				match = false
				break
			}
		}
		if match {
			removed++
			continue
		}
		kept = append(kept, d)
	}
	if removed == 0 {
		return 0, nil
	}
	c.docs = kept
	c.rebuildIndexes()
	return removed, nil
}

// DeleteTuples removes every document whose projection along paths equals
// ANY of the given tuples, in one collection pass with a single index
// rebuild — the batched form the maintenance layer uses (per-tuple Delete
// would rescan the collection and rebuild indexes once per tuple). A
// document missing one of the paths matches nothing. Returns the number
// of documents removed.
func (s *Store) DeleteTuples(collName string, paths []string, rows []value.Tuple) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("docstore %s: delete without paths would drop collection %q", s.Name(), collName)
	}
	if err := s.Fault().BeforeWrite(); err != nil {
		return 0, err
	}
	victims := make(map[string]struct{}, len(rows))
	for _, r := range rows {
		victims[r.Key()] = struct{}{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(collName)
	if err != nil {
		return 0, err
	}
	kept := make([]*value.Doc, 0, len(c.docs))
	removed := 0
	proj := make(value.Tuple, len(paths))
	for _, d := range c.docs {
		match := true
		for i, p := range paths {
			v, ok := d.ScalarAt(p)
			if !ok {
				match = false
				break
			}
			proj[i] = v
		}
		if match {
			if _, hit := victims[proj.Key()]; hit {
				removed++
				continue
			}
		}
		kept = append(kept, d)
	}
	if removed == 0 {
		return 0, nil
	}
	c.docs = kept
	c.rebuildIndexes()
	return removed, nil
}

// rebuildIndexes recomputes every path index from c.docs. Callers hold
// the store write lock; fresh maps are installed (copy-on-write).
func (c *collection) rebuildIndexes() {
	for path := range c.indexes {
		ix := map[string][]int{}
		for i, d := range c.docs {
			if v, ok := d.ScalarAt(path); ok {
				ix[v.Key()] = append(ix[v.Key()], i)
			}
		}
		c.indexes[path] = ix
	}
}

// CreateIndex builds a secondary index on a dotted path.
func (s *Store) CreateIndex(collName, path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(collName)
	if err != nil {
		return err
	}
	if _, ok := c.indexes[path]; ok {
		return nil // idempotent
	}
	ix := map[string][]int{}
	for i, d := range c.docs {
		if v, ok := d.ScalarAt(path); ok {
			ix[v.Key()] = append(ix[v.Key()], i)
		}
	}
	c.indexes[path] = ix
	return nil
}

// Len returns the number of documents in a collection.
func (s *Store) Len(collName string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.coll(collName)
	if err != nil {
		return 0, err
	}
	return len(c.docs), nil
}

// PathFilter is a path-equality predicate.
type PathFilter struct {
	Path string
	Val  value.Value
}

// Find returns the documents matching every filter, using an index when one
// covers a filter path.
func (s *Store) Find(collName string, filters []PathFilter) ([]*value.Doc, error) {
	return s.findCounted(context.Background(), collName, filters, engine.NewTally(s.Counters(), nil))
}

func (s *Store) findCounted(ctx context.Context, collName string, filters []PathFilter, tally engine.Tally) ([]*value.Doc, error) {
	tally.AddRequest()
	if err := s.Enter(ctx); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.coll(collName)
	if err != nil {
		return nil, err
	}

	var candidates []int
	usedIdx := -1
	for i, f := range filters {
		if ix, ok := c.indexes[f.Path]; ok {
			candidates = ix[f.Val.Key()]
			usedIdx = i
			tally.AddLookup()
			break
		}
	}
	if usedIdx == -1 {
		tally.AddScan()
		candidates = make([]int, len(c.docs))
		for i := range c.docs {
			candidates[i] = i
		}
	}
	var out []*value.Doc
	for _, pos := range candidates {
		d := c.docs[pos]
		match := true
		for i, f := range filters {
			if i == usedIdx {
				continue
			}
			v, ok := d.ScalarAt(f.Path)
			if !ok || !value.Equal(v, f.Val) {
				match = false
				break
			}
		}
		if match {
			out = append(out, d)
		}
	}
	tally.AddTuples(len(out))
	return out, nil
}

// FindTuplesBatchCounted runs the Find access and projects each matching
// document into a tuple along the given paths; missing paths project to
// NULL. Documents whose projected path hits an array are unnested: one
// output tuple per array element combination along the first array
// encountered.
func (s *Store) FindTuplesBatchCounted(ctx context.Context, collName string, filters []PathFilter, paths []string, extra *engine.Counters) (engine.BatchIterator, error) {
	docs, err := s.findCounted(ctx, collName, filters, engine.NewTally(s.Counters(), extra))
	if err != nil {
		return nil, err
	}
	var rows []value.Tuple
	for _, d := range docs {
		rows = append(rows, ProjectDoc(d, paths)...)
	}
	return s.Fault().WrapBatch(engine.NewSliceBatchIterator(rows)), nil
}

// ProjectDoc projects a document to tuples along paths. If the first path
// segment of some path addresses an array of objects, the document is
// unnested on that array: each element produces one tuple (scenario: one
// cart document holds an "items" array; projecting sku/qty yields one row
// per item).
func ProjectDoc(d *value.Doc, paths []string) []value.Tuple {
	// Find an array to unnest over: the longest common prefix of the paths
	// that lands on an array node.
	arrPrefix := ""
	for _, p := range paths {
		segs := splitPath(p)
		for i := 1; i <= len(segs); i++ {
			prefix := joinPath(segs[:i])
			if node, ok := d.Path(prefixParent(prefix)); ok {
				if sub, ok2 := node.Get(lastSeg(prefix)); ok2 && sub.DKind == value.DocArray {
					if len(prefix) > len(arrPrefix) {
						arrPrefix = prefix
					}
				}
			}
		}
	}
	if arrPrefix == "" {
		return []value.Tuple{projectOne(d, paths)}
	}
	arrNode, ok := d.Path(arrPrefix)
	if !ok || arrNode.DKind != value.DocArray {
		return []value.Tuple{projectOne(d, paths)}
	}
	var out []value.Tuple
	for _, elem := range arrNode.Elems {
		row := make(value.Tuple, len(paths))
		for i, p := range paths {
			if rest, isUnder := pathUnder(p, arrPrefix); isUnder {
				if v, ok := elem.ScalarAt(rest); ok {
					row[i] = v
				} else {
					row[i] = value.Null{}
				}
			} else if v, ok := d.ScalarAt(p); ok {
				row[i] = v
			} else {
				row[i] = value.Null{}
			}
		}
		out = append(out, row)
	}
	return out
}

func projectOne(d *value.Doc, paths []string) value.Tuple {
	row := make(value.Tuple, len(paths))
	for i, p := range paths {
		if v, ok := d.ScalarAt(p); ok {
			row[i] = v
		} else {
			row[i] = value.Null{}
		}
	}
	return row
}

func splitPath(p string) []string {
	var segs []string
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '.' {
			segs = append(segs, p[start:i])
			start = i + 1
		}
	}
	return segs
}

func joinPath(segs []string) string {
	out := ""
	for i, s := range segs {
		if i > 0 {
			out += "."
		}
		out += s
	}
	return out
}

func prefixParent(p string) string {
	segs := splitPath(p)
	if len(segs) <= 1 {
		return ""
	}
	return joinPath(segs[:len(segs)-1])
}

func lastSeg(p string) string {
	segs := splitPath(p)
	return segs[len(segs)-1]
}

// pathUnder reports whether path p lies strictly under prefix, returning
// the remainder.
func pathUnder(p, prefix string) (string, bool) {
	if len(p) > len(prefix)+1 && p[:len(prefix)] == prefix && p[len(prefix)] == '.' {
		return p[len(prefix)+1:], true
	}
	return "", false
}
