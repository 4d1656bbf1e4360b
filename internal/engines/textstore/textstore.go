// Package textstore is ESTOCADA's full-text storage substrate — the
// stand-in for SOLR/Lucene, which the paper's scenario uses for the product
// catalog. Documents are flat field maps; configured text fields are
// tokenized into an inverted index; queries combine keyword containment
// (AND semantics) with exact field-equality filters, returning stored
// fields projected into tuples.
package textstore

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

// Store is one full-text store instance.
type Store struct {
	engine.Base
	mu    sync.RWMutex
	colls map[string]*index
}

type index struct {
	textFields map[string]bool
	docs       []map[string]value.Value
	// inverted maps token → posting list of doc positions (sorted,
	// deduplicated).
	inverted map[string][]int
	// fieldIdx maps field → value key → doc positions (exact-match index).
	fieldIdx map[string]map[string][]int
}

// New creates an empty full-text store.
func New(name string) *Store {
	s := &Store{colls: map[string]*index{}}
	s.Init(name)
	return s
}

// Kind implements engine.Engine.
func (s *Store) Kind() string { return "fulltext" }

// Capabilities implements engine.Engine.
func (s *Store) Capabilities() engine.Capability {
	return engine.CapScan | engine.CapFilter | engine.CapProject | engine.CapFullText
}

// CreateCollection registers a collection; textFields are tokenized into
// the inverted index.
func (s *Store) CreateCollection(name string, textFields ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.colls[name]; ok {
		return fmt.Errorf("textstore %s: collection %q exists", s.Name(), name)
	}
	ix := &index{
		textFields: map[string]bool{},
		inverted:   map[string][]int{},
		fieldIdx:   map[string]map[string][]int{},
	}
	for _, f := range textFields {
		ix.textFields[f] = true
	}
	s.colls[name] = ix
	return nil
}

// DropCollection removes a collection.
func (s *Store) DropCollection(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.colls[name]; !ok {
		return fmt.Errorf("textstore %s: no collection %q", s.Name(), name)
	}
	delete(s.colls, name)
	return nil
}

func (s *Store) coll(name string) (*index, error) {
	c, ok := s.colls[name]
	if !ok {
		return nil, fmt.Errorf("textstore %s: no collection %q", s.Name(), name)
	}
	return c, nil
}

// Insert indexes one document (a flat field→value map): text fields are
// tokenized into the inverted index, and every field gets an exact-match
// entry.
func (s *Store) Insert(collName string, doc map[string]value.Value) error {
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
	stored := make(map[string]value.Value, len(doc))
	for k, v := range doc {
		stored[k] = v
	}
	c.docs = append(c.docs, stored)
	c.indexDoc(pos, stored)
	return nil
}

// indexDoc adds one document's postings and exact-match entries — shared
// between Insert (append) and DeleteMany's rebuild so tokenization and
// posting semantics can never diverge between the two.
func (c *index) indexDoc(pos int, doc map[string]value.Value) {
	for field, v := range doc {
		if c.textFields[field] {
			if str, ok := v.(value.Str); ok {
				for _, tok := range Tokenize(string(str)) {
					c.inverted[tok] = appendPosting(c.inverted[tok], pos)
				}
			}
		}
		fi := c.fieldIdx[field]
		if fi == nil {
			fi = map[string][]int{}
			c.fieldIdx[field] = fi
		}
		fi[v.Key()] = append(fi[v.Key()], pos)
	}
}

// Delete removes every document whose stored fields match ALL the given
// field values (a document lacking one of the fields does not match) and
// returns how many were removed. Because posting lists and the exact-match
// index address documents by position, both are rebuilt from the surviving
// documents; fresh maps and slices are installed (copy-on-write), so an
// already-computed search result set keeps reading its own snapshot.
func (s *Store) Delete(collName string, fields map[string]value.Value) (int, error) {
	return s.DeleteMany(collName, []map[string]value.Value{fields})
}

// DeleteMany removes documents matching ANY of the given field-value
// criteria (each criterion as in Delete: all its fields must match), in
// one collection pass with a single posting/index rebuild — the batched
// form the maintenance layer uses, since per-document Delete would rescan
// and rebuild once per document.
func (s *Store) DeleteMany(collName string, criteria []map[string]value.Value) (int, error) {
	if len(criteria) == 0 {
		return 0, nil
	}
	if err := s.Fault().BeforeWrite(); err != nil {
		return 0, err
	}
	for _, fields := range criteria {
		if len(fields) == 0 {
			return 0, fmt.Errorf("textstore %s: delete without field filters would drop collection %q", s.Name(), collName)
		}
	}
	// Fast path: when every criterion names the same field set (the
	// maintenance layer always deletes with a fragment's full column
	// set), victims collapse into one hash set keyed by the rendered
	// field values, making the pass O(docs) instead of O(docs×criteria).
	shared := sharedFieldSet(criteria)
	var victims map[string]struct{}
	if shared != nil {
		victims = make(map[string]struct{}, len(criteria))
		for _, fields := range criteria {
			victims[fieldsKey(shared, fields)] = struct{}{}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(collName)
	if err != nil {
		return 0, err
	}
	kept := make([]map[string]value.Value, 0, len(c.docs))
	removed := 0
	for _, doc := range c.docs {
		hit := false
		if victims != nil {
			complete := true
			for _, f := range shared {
				if _, ok := doc[f]; !ok {
					complete = false
					break
				}
			}
			if complete {
				_, hit = victims[fieldsKey(shared, doc)]
			}
		} else {
			for _, fields := range criteria {
				match := true
				for f, want := range fields {
					got, ok := doc[f]
					if !ok || !value.Equal(got, want) {
						match = false
						break
					}
				}
				if match {
					hit = true
					break
				}
			}
		}
		if hit {
			removed++
			continue
		}
		kept = append(kept, doc)
	}
	if removed == 0 {
		return 0, nil
	}
	c.docs = kept
	c.inverted = map[string][]int{}
	c.fieldIdx = map[string]map[string][]int{}
	for pos, doc := range c.docs {
		c.indexDoc(pos, doc)
	}
	return removed, nil
}

// sharedFieldSet returns the sorted field names common to every
// criterion, or nil when the criteria name differing field sets.
func sharedFieldSet(criteria []map[string]value.Value) []string {
	fields := make([]string, 0, len(criteria[0]))
	for f := range criteria[0] {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, c := range criteria[1:] {
		if len(c) != len(fields) {
			return nil
		}
		for _, f := range fields {
			if _, ok := c[f]; !ok {
				return nil
			}
		}
	}
	return fields
}

// fieldsKey renders the values of the given fields (all present) as one
// length-prefixed lookup key.
func fieldsKey(fields []string, doc map[string]value.Value) string {
	var sb strings.Builder
	for _, f := range fields {
		k := doc[f].Key()
		sb.WriteString(strconv.Itoa(len(k)))
		sb.WriteByte(':')
		sb.WriteString(k)
	}
	return sb.String()
}

func appendPosting(l []int, pos int) []int {
	if n := len(l); n > 0 && l[n-1] == pos {
		return l
	}
	return append(l, pos)
}

// Tokenize lowercases and splits on non-alphanumeric runes.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Len returns the document count of a collection.
func (s *Store) Len(collName string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.coll(collName)
	if err != nil {
		return 0, err
	}
	return len(c.docs), nil
}

// Query is a full-text search: all Terms must occur in some text field
// (AND), and all Fields must match exactly. Project lists the stored fields
// returned per hit.
type Query struct {
	Terms   []string
	Fields  []FieldFilter
	Project []string
}

// FieldFilter is an exact-match predicate on a stored field.
type FieldFilter struct {
	Field string
	Val   value.Value
}

// SearchBatchCounted runs a query, returning one tuple per hit, projected
// on q.Project (missing fields become NULL).
func (s *Store) SearchBatchCounted(ctx context.Context, collName string, q Query, extra *engine.Counters) (engine.BatchIterator, error) {
	tally := engine.NewTally(s.Counters(), extra)
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
	switch {
	case len(q.Terms) > 0:
		// Intersect posting lists, rarest first.
		tally.AddLookup()
		lists := make([][]int, 0, len(q.Terms))
		for _, t := range q.Terms {
			lists = append(lists, c.inverted[strings.ToLower(t)])
		}
		sort.Slice(lists, func(a, b int) bool { return len(lists[a]) < len(lists[b]) })
		candidates = lists[0]
		for _, l := range lists[1:] {
			candidates = intersect(candidates, l)
		}
	case len(q.Fields) > 0:
		if fi, ok := c.fieldIdx[q.Fields[0].Field]; ok {
			tally.AddLookup()
			candidates = fi[q.Fields[0].Val.Key()]
		}
	default:
		tally.AddScan()
		candidates = make([]int, len(c.docs))
		for i := range candidates {
			candidates[i] = i
		}
	}

	var rows []value.Tuple
	for _, pos := range candidates {
		doc := c.docs[pos]
		match := true
		for _, f := range q.Fields {
			v, ok := doc[f.Field]
			if !ok || !value.Equal(v, f.Val) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		row := make(value.Tuple, len(q.Project))
		for i, p := range q.Project {
			if v, ok := doc[p]; ok {
				row[i] = v
			} else {
				row[i] = value.Null{}
			}
		}
		rows = append(rows, row)
	}
	tally.AddTuples(len(rows))
	return s.Fault().WrapBatch(engine.NewSliceBatchIterator(rows)), nil
}

// intersect merges two sorted posting lists.
func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
