// Package translate turns a conjunctive rewriting over fragment predicates
// into an executable physical plan (paper §III, "Making rewritings
// executable"): it groups atoms per store, delegates the largest subquery
// each store supports natively (relational and parallel stores take whole
// joins; key-value, document and full-text stores take single accesses),
// orders accesses so that binding-pattern restrictions are satisfied,
// inserts BindJoin operators for dependent accesses, and picks the cheapest
// plan among alternative rewritings using the statistics-based cost model.
package translate

import (
	"repro/internal/engines/docstore"
	"repro/internal/engines/engine"
	"repro/internal/engines/kvstore"
	"repro/internal/engines/parstore"
	"repro/internal/engines/relstore"
	"repro/internal/engines/textstore"
)

// Stores registers the engine instances by name, typed per kind so the
// planner can issue native requests.
type Stores struct {
	Rel  map[string]*relstore.Store
	KV   map[string]*kvstore.Store
	Doc  map[string]*docstore.Store
	Text map[string]*textstore.Store
	Par  map[string]*parstore.Store
	// all holds every store, whatever its kind.
	all map[string]engine.Engine
}

// NewStores returns an empty registry.
func NewStores() *Stores {
	return &Stores{
		Rel:  map[string]*relstore.Store{},
		KV:   map[string]*kvstore.Store{},
		Doc:  map[string]*docstore.Store{},
		Text: map[string]*textstore.Store{},
		Par:  map[string]*parstore.Store{},
		all:  map[string]engine.Engine{},
	}
}

// AddRel registers a relational store.
func (s *Stores) AddRel(st *relstore.Store) { s.Rel[st.Name()], s.all[st.Name()] = st, st }

// AddKV registers a key-value store.
func (s *Stores) AddKV(st *kvstore.Store) { s.KV[st.Name()], s.all[st.Name()] = st, st }

// AddDoc registers a document store.
func (s *Stores) AddDoc(st *docstore.Store) { s.Doc[st.Name()], s.all[st.Name()] = st, st }

// AddText registers a full-text store.
func (s *Stores) AddText(st *textstore.Store) { s.Text[st.Name()], s.all[st.Name()] = st, st }

// AddPar registers a parallel store.
func (s *Stores) AddPar(st *parstore.Store) { s.Par[st.Name()], s.all[st.Name()] = st, st }

// Engine returns the generic engine interface for a store name.
func (s *Stores) Engine(name string) (engine.Engine, bool) {
	e, ok := s.all[name]
	return e, ok
}

// All returns every registered engine.
func (s *Stores) All() []engine.Engine {
	out := make([]engine.Engine, 0, len(s.all))
	for _, e := range s.all {
		out = append(out, e)
	}
	return out
}
