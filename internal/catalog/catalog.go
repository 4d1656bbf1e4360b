// Package catalog implements ESTOCADA's Storage Descriptor Manager (paper
// Fig. 1): for each data fragment D_i/F_j residing in store S_k it keeps a
// storage descriptor sd(S_k, D_i/F_j) specifying WHAT data the fragment
// holds (a view over the dataset, in the dataset's model), WHERE it lives
// within the store (table/collection name, key layout, document paths), and
// HOW it may be accessed (scan, key lookup, full-text search), plus the
// statistics the cost model consumes.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/rewrite"
	"repro/internal/stats"
)

// LayoutKind tells how a fragment's view tuples are physically organized
// inside its store.
type LayoutKind int

const (
	// LayoutRel: a table in a relational store; Columns name the view
	// columns.
	LayoutRel LayoutKind = iota
	// LayoutKV: a key-value collection; the view column KeyCol is the key,
	// whole tuples are the payload (append semantics for duplicate keys).
	LayoutKV
	// LayoutDoc: a document collection; DocPaths[i] is the dotted path of
	// view column i within each document.
	LayoutDoc
	// LayoutText: a full-text collection; Fields[i] names the stored field
	// of view column i, and TextField is the tokenized field.
	LayoutText
	// LayoutPar: a partitioned table in the parallel store.
	LayoutPar
)

func (k LayoutKind) String() string {
	switch k {
	case LayoutRel:
		return "relational"
	case LayoutKV:
		return "keyvalue"
	case LayoutDoc:
		return "document"
	case LayoutText:
		return "fulltext"
	case LayoutPar:
		return "parallel"
	default:
		return fmt.Sprintf("layout(%d)", int(k))
	}
}

// Layout is the WHERE part of a storage descriptor.
type Layout struct {
	Kind       LayoutKind
	Collection string
	// Columns names the view columns inside the store (rel/par/text).
	Columns []string
	// KeyCol is the key position for LayoutKV.
	KeyCol int
	// PartitionCol is the hash column for LayoutPar.
	PartitionCol int
	// IndexCols lists view columns with secondary indexes (rel/par/doc).
	IndexCols []int
	// DocPaths maps view columns to document paths (LayoutDoc).
	DocPaths []string
	// TextField is the tokenized field name (LayoutText).
	TextField string
}

// Validate checks internal consistency against the view arity. It is the
// one place a layout's fields are checked; whether the target store holds
// the layout's kind is checked where the fragment is bound to its store.
func (l Layout) Validate(arity int) error {
	if l.Collection == "" {
		return fmt.Errorf("catalog: layout without collection name")
	}
	switch l.Kind {
	case LayoutRel, LayoutPar, LayoutText:
		if len(l.Columns) != arity {
			return fmt.Errorf("catalog: %s layout names %d columns for arity %d",
				l.Kind, len(l.Columns), arity)
		}
		if l.Kind == LayoutPar && (l.PartitionCol < 0 || l.PartitionCol >= arity) {
			return fmt.Errorf("catalog: partition column %d out of range (arity %d)", l.PartitionCol, arity)
		}
	case LayoutKV:
		if l.KeyCol < 0 || l.KeyCol >= arity {
			return fmt.Errorf("catalog: KV key column %d out of range (arity %d)", l.KeyCol, arity)
		}
	case LayoutDoc:
		if len(l.DocPaths) != arity {
			return fmt.Errorf("catalog: doc layout names %d paths for arity %d",
				len(l.DocPaths), arity)
		}
		for i, p := range l.DocPaths {
			if p == "" {
				return fmt.Errorf("catalog: empty document path at column %d", i)
			}
		}
	default:
		return fmt.Errorf("catalog: unknown layout kind %s", l.Kind)
	}
	for _, c := range l.IndexCols {
		if c < 0 || c >= arity {
			return fmt.Errorf("catalog: index column %d out of range (arity %d)", c, arity)
		}
	}
	return nil
}

// Fragment is one registered fragment: the WHAT (view), WHERE (store +
// layout), HOW (access pattern), and its statistics.
type Fragment struct {
	// Name is the fragment's view predicate (unique in the catalog).
	Name string
	// Dataset is the logical dataset the fragment derives from.
	Dataset string
	// View defines WHAT the fragment stores.
	View rewrite.View
	// Store is the engine instance name holding the fragment.
	Store string
	// Layout is the physical organization inside the store.
	Layout Layout
	// Access restricts how the fragment may be read ("" = all-free).
	Access rewrite.AccessPattern
	// Credentials names the credential entry required to connect to the
	// store ("the access credentials required in order to connect to the
	// system", paper §III). Opaque to the simulator; recorded and shown in
	// the descriptor.
	Credentials string
	// Stats carries the fragment statistics for cost estimation. Direct
	// field access is construction-time only: once the fragment is
	// registered, the maintenance layer refreshes statistics concurrently
	// with planning, so readers go through StatsSnapshot and writers
	// through Catalog.SetStats.
	Stats stats.FragmentStats

	// statsMu guards Stats after registration (planner and advisor read
	// while DML appliers refresh).
	statsMu sync.RWMutex
}

// StatsSnapshot reads the fragment's current statistics. The returned
// struct is a copy; its Distinct slice is immutable by convention (stats
// writers always install freshly built slices).
func (f *Fragment) StatsSnapshot() stats.FragmentStats {
	f.statsMu.RLock()
	defer f.statsMu.RUnlock()
	return f.Stats
}

// setStats installs fresh statistics (callers: Catalog.SetStats).
func (f *Fragment) setStats(st stats.FragmentStats) {
	f.statsMu.Lock()
	f.Stats = st
	f.statsMu.Unlock()
}

// Validate checks the fragment definition.
func (f *Fragment) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("catalog: fragment without name")
	}
	if f.Name != f.View.Name {
		return fmt.Errorf("catalog: fragment %q names view %q", f.Name, f.View.Name)
	}
	if err := f.View.Validate(); err != nil {
		return err
	}
	if f.Store == "" {
		return fmt.Errorf("catalog: fragment %q without store", f.Name)
	}
	arity := f.View.Def.Head.Arity()
	if err := f.Layout.Validate(arity); err != nil {
		return fmt.Errorf("fragment %q: %w", f.Name, err)
	}
	if err := f.Access.Validate(arity); err != nil {
		return fmt.Errorf("fragment %q: %w", f.Name, err)
	}
	return nil
}

// Describe renders the storage descriptor sd(S_k, D_i/F_j) for humans —
// what the demo shows in step 1 (paper §IV).
func (f *Fragment) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sd(%s, %s/%s)\n", f.Store, f.Dataset, f.Name)
	fmt.Fprintf(&sb, "  what:   %s\n", f.View.Def)
	fmt.Fprintf(&sb, "  where:  %s collection %q", f.Layout.Kind, f.Layout.Collection)
	switch f.Layout.Kind {
	case LayoutKV:
		fmt.Fprintf(&sb, " keyed by column %d", f.Layout.KeyCol)
	case LayoutDoc:
		fmt.Fprintf(&sb, " paths %v", f.Layout.DocPaths)
	case LayoutRel, LayoutPar, LayoutText:
		fmt.Fprintf(&sb, " columns %v", f.Layout.Columns)
	}
	sb.WriteByte('\n')
	how := "scan"
	if f.Access != "" {
		how = fmt.Sprintf("access pattern %s", f.Access)
	}
	fmt.Fprintf(&sb, "  how:    %s\n", how)
	if f.Credentials != "" {
		fmt.Fprintf(&sb, "  creds:  %s\n", f.Credentials)
	}
	fmt.Fprintf(&sb, "  stats:  %d rows", f.StatsSnapshot().Rows)
	return sb.String()
}

// Catalog is the storage-descriptor registry. Safe for concurrent use.
type Catalog struct {
	mu    sync.RWMutex
	frags map[string]*Fragment
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{frags: map[string]*Fragment{}}
}

// Register adds a fragment after validation.
func (c *Catalog) Register(f *Fragment) error {
	if err := f.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.frags[f.Name]; ok {
		return fmt.Errorf("catalog: fragment %q already registered", f.Name)
	}
	c.frags[f.Name] = f
	return nil
}

// Drop removes a fragment (the Storage Advisor drops redundant fragments,
// paper §III).
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.frags[name]; !ok {
		return fmt.Errorf("catalog: no fragment %q", name)
	}
	delete(c.frags, name)
	return nil
}

// Get returns a fragment by name.
func (c *Catalog) Get(name string) (*Fragment, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.frags[name]
	return f, ok
}

// All returns the fragments sorted by name.
func (c *Catalog) All() []*Fragment {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Fragment, 0, len(c.frags))
	for _, f := range c.frags {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Views returns the rewrite views of all fragments (optionally restricted
// to one dataset; "" = all).
func (c *Catalog) Views(dataset string) []rewrite.View {
	var out []rewrite.View
	for _, f := range c.All() {
		if dataset == "" || f.Dataset == dataset {
			out = append(out, f.View)
		}
	}
	return out
}

// AccessPatterns returns the adornments of all fragments that have one.
func (c *Catalog) AccessPatterns() map[string]rewrite.AccessPattern {
	out := map[string]rewrite.AccessPattern{}
	for _, f := range c.All() {
		if f.Access != "" {
			out[f.Name] = f.Access
		}
	}
	return out
}

// StatsFor implements stats.Provider over the registered fragments.
func (c *Catalog) StatsFor(pred string) (stats.FragmentStats, bool) {
	c.mu.RLock()
	f, ok := c.frags[pred]
	c.mu.RUnlock()
	if !ok {
		return stats.FragmentStats{}, false
	}
	return f.StatsSnapshot(), true
}

// RowsSnapshot captures the current row-count statistic of each named
// fragment (unknown names are skipped). Plan caches stamp this alongside a
// plan so later executions can detect when data drift has invalidated the
// cardinality estimates the plan was ordered by.
func (c *Catalog) RowsSnapshot(names []string) map[string]int64 {
	out := make(map[string]int64, len(names))
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range names {
		if f, ok := c.frags[n]; ok {
			out[n] = f.StatsSnapshot().Rows
		}
	}
	return out
}

// SetStats updates a fragment's statistics. Safe to call concurrently
// with planning: readers snapshot through the fragment's stats lock.
func (c *Catalog) SetStats(name string, st stats.FragmentStats) error {
	c.mu.RLock()
	f, ok := c.frags[name]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("catalog: no fragment %q", name)
	}
	f.setStats(st)
	return nil
}
