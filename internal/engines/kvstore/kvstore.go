// Package kvstore is ESTOCADA's key-value storage substrate — the stand-in
// for Redis or Voldemort in the paper's scenario. Collections map string
// keys to opaque byte payloads (encoded tuples); the only access path is an
// exact-key get, which is precisely the access-pattern restriction ("the
// value of the key must be specified in order to access the values
// associated to this key", paper §III) that the pivot model encodes as a
// 'bf' binding pattern and the execution engine honors with BindJoin.
//
// A key may hold several encoded tuples (append semantics), matching how
// the scenario stores all of a user's preferences or cart lines under the
// user's key.
package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

// Store is one key-value store instance.
type Store struct {
	engine.Base
	mu    sync.RWMutex
	colls map[string]map[string][][]byte
}

// New creates an empty key-value store.
func New(name string) *Store {
	s := &Store{colls: map[string]map[string][][]byte{}}
	s.Init(name)
	return s
}

// Kind implements engine.Engine.
func (s *Store) Kind() string { return "keyvalue" }

// Capabilities implements engine.Engine: key lookup only.
func (s *Store) Capabilities() engine.Capability { return engine.CapKeyLookup }

// CreateCollection registers a collection.
func (s *Store) CreateCollection(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.colls[name]; ok {
		return fmt.Errorf("kvstore %s: collection %q exists", s.Name(), name)
	}
	s.colls[name] = map[string][][]byte{}
	return nil
}

// DropCollection removes a collection.
func (s *Store) DropCollection(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.colls[name]; !ok {
		return fmt.Errorf("kvstore %s: no collection %q", s.Name(), name)
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

func (s *Store) coll(name string) (map[string][][]byte, error) {
	c, ok := s.colls[name]
	if !ok {
		return nil, fmt.Errorf("kvstore %s: no collection %q", s.Name(), name)
	}
	return c, nil
}

// Append stores one tuple under key (appending to any tuples already
// there). The tuple is encoded to bytes, as a real KV store would receive.
func (s *Store) Append(collection, key string, t value.Tuple) error {
	if err := s.Fault().BeforeWrite(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(collection)
	if err != nil {
		return err
	}
	c[key] = append(c[key], value.EncodeTuple(t))
	return nil
}

// Put replaces the tuples under key with exactly one tuple.
func (s *Store) Put(collection, key string, t value.Tuple) error {
	if err := s.Fault().BeforeWrite(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(collection)
	if err != nil {
		return err
	}
	c[key] = [][]byte{value.EncodeTuple(t)}
	return nil
}

// Delete removes a key.
func (s *Store) Delete(collection, key string) error {
	if err := s.Fault().BeforeWrite(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(collection)
	if err != nil {
		return err
	}
	delete(c, key)
	return nil
}

// DeleteTuple removes every stored copy of one tuple under key — the
// tuple-level removal the maintenance layer needs where the store's native
// Delete is key-level only. The surviving payloads are rebuilt into a
// fresh slice (never mutated in place) and the key disappears when its
// last tuple goes. Returns how many copies were removed.
func (s *Store) DeleteTuple(collection, key string, t value.Tuple) (int, error) {
	if err := s.Fault().BeforeWrite(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.coll(collection)
	if err != nil {
		return 0, err
	}
	enc := value.EncodeTuple(t)
	old := c[key]
	kept := make([][]byte, 0, len(old))
	removed := 0
	for _, p := range old {
		if bytes.Equal(p, enc) {
			removed++
			continue
		}
		kept = append(kept, p)
	}
	switch {
	case removed == 0:
	case len(kept) == 0:
		delete(c, key)
	default:
		c[key] = kept
	}
	return removed, nil
}

// GetBatchCounted fetches and decodes the tuples stored under key — the
// store's only query-time access path. A missing key yields an empty
// stream, not an error (KV semantics).
func (s *Store) GetBatchCounted(ctx context.Context, collection, key string, extra *engine.Counters) (engine.BatchIterator, error) {
	tally := engine.NewTally(s.Counters(), extra)
	tally.AddRequest()
	if err := s.Enter(ctx); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.coll(collection)
	if err != nil {
		return nil, err
	}
	tally.AddLookup()
	payloads := c[key]
	rows := make([]value.Tuple, 0, len(payloads))
	for _, p := range payloads {
		t, err := value.DecodeTuple(p)
		if err != nil {
			return nil, fmt.Errorf("kvstore %s: corrupt payload under %q/%q: %w",
				s.Name(), collection, key, err)
		}
		rows = append(rows, t)
	}
	tally.AddTuples(len(rows))
	return s.Fault().WrapBatch(engine.NewSliceBatchIterator(rows)), nil
}

// Len returns the number of keys in a collection.
func (s *Store) Len(collection string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.coll(collection)
	if err != nil {
		return 0, err
	}
	return len(c), nil
}

// Dump enumerates every tuple of a collection in key order — the
// administrative read used by maintenance bootstrap, statistics and
// verification; it is neither counted nor fault-injected. Query plans
// never call it: the store's contract for planning is key-only access.
func (s *Store) Dump(collection string) ([]value.Tuple, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.coll(collection)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var rows []value.Tuple
	for _, k := range keys {
		for _, p := range c[k] {
			t, err := value.DecodeTuple(p)
			if err != nil {
				return nil, fmt.Errorf("kvstore %s: corrupt payload under %q/%q: %w",
					s.Name(), collection, k, err)
			}
			rows = append(rows, t)
		}
	}
	return rows, nil
}
