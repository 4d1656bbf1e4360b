package translate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engines/docstore"
	"repro/internal/engines/engine"
	"repro/internal/engines/kvstore"
	"repro/internal/engines/parstore"
	"repro/internal/engines/relstore"
	"repro/internal/engines/textstore"
	"repro/internal/obs"
	"repro/internal/value"
)

var (
	// ErrUnknownStore: a fragment names a store that is not registered.
	ErrUnknownStore = errors.New("translate: unknown store")
	// ErrLayoutMismatch: a fragment's layout kind is not one its store
	// holds (a key-value layout on a relational store, say).
	ErrLayoutMismatch = errors.New("translate: layout does not fit the store")
	// ErrDrift: a delete found fewer stored tuples than it was asked to
	// remove, so the container and the maintenance layer's count table
	// disagree.
	ErrDrift = errors.New("translate: fragment drift")
)

// Container is a fragment's physical container in its store: the WHERE
// of its storage descriptor turned into calls. It hides the layout's data
// format (the key-value key encoding, the document paths, the text
// fields), so the mediator reads and writes view tuples only.
type Container struct {
	layout
	frag string
	hist *obs.Histogram
}

// Container binds a fragment to its container in its store. It is the
// one place a layout kind is matched to a store kind; a store that does
// not hold the layout's kind is refused with ErrLayoutMismatch. The
// layout's fields are checked once, by catalog.Layout.Validate.
func (s *Stores) Container(f *catalog.Fragment) (*Container, error) {
	var (
		l   layout
		eng engine.Engine
	)
	w := where{f.Name, f.Layout}
	switch f.Layout.Kind {
	case catalog.LayoutRel:
		if st, ok := s.Rel[f.Store]; ok {
			l, eng = &relLayout{tableLayout{st, w}, st}, st
		}
	case catalog.LayoutPar:
		if st, ok := s.Par[f.Store]; ok {
			l, eng = &parLayout{tableLayout{st, w}, st}, st
		}
	case catalog.LayoutKV:
		if st, ok := s.KV[f.Store]; ok {
			l, eng = &kvLayout{st, w}, st
		}
	case catalog.LayoutDoc:
		if st, ok := s.Doc[f.Store]; ok {
			l, eng = &docLayout{st, w}, st
		}
	case catalog.LayoutText:
		if st, ok := s.Text[f.Store]; ok {
			l, eng = &textLayout{st, w}, st
		}
	}
	if l != nil {
		return &Container{layout: l, frag: f.Name, hist: eng.LatencyHistogram()}, nil
	}
	if e, ok := s.Engine(f.Store); ok {
		return nil, fmt.Errorf("%w: %s layout of fragment %q on %s store %q",
			ErrLayoutMismatch, f.Layout.Kind, f.Name, e.Kind(), f.Store)
	}
	return nil, fmt.Errorf("%w %q (fragment %q)", ErrUnknownStore, f.Store, f.Name)
}

// layout is one layout kind's native calls, with the kind's data format
// applied. Container adds what all kinds share.
type layout interface {
	// create makes the empty container; exists reports whether it is there.
	create() error
	exists() bool
	insert(rows []value.Tuple) error
	// remove deletes every stored copy of each row and returns how many
	// of rows it found.
	remove(rows []value.Tuple) (int, error)
	// index builds the layout's missing secondary indexes.
	index() error
	read(ctx context.Context, filters []engine.EqFilter, extra *engine.Counters) (engine.BatchIterator, error)
	drop() error
}

// dumper is a layout whose extent is not a read without filters (the
// key-value layout cannot read without its key).
type dumper interface{ dump() ([]value.Tuple, error) }

// where is the part of the storage descriptor every layout reads: the
// fragment's name (for errors) and its layout.
type where struct {
	frag string
	catalog.Layout
}

// Ensure creates the empty container unless it exists.
func (c *Container) Ensure() error {
	if c.exists() {
		return nil
	}
	// A concurrent Ensure may have won the race to create it.
	if err := c.create(); err != nil && !c.exists() {
		return err
	}
	return nil
}

// Apply inserts adds and deletes dels (each delete removes every stored
// copy of the tuple). After inserting it builds the layout's secondary
// indexes if they are missing, so a bulk load indexes once, after its
// inserts. A delete that finds no stored tuple fails with ErrDrift.
func (c *Container) Apply(adds, dels []value.Tuple) error {
	if len(adds) > 0 {
		if err := c.insert(adds); err != nil {
			return err
		}
		if err := c.index(); err != nil {
			return err
		}
	}
	if len(dels) > 0 {
		n, err := c.remove(dels)
		if err != nil {
			return err
		}
		if n < len(dels) {
			return fmt.Errorf("%w: fragment %q: delta deleted %d stored tuples, expected %d",
				ErrDrift, c.frag, n, len(dels))
		}
	}
	return nil
}

// Extent reads every stored tuple. It is the administrative read
// (statistics, maintenance bootstrap and verification): it bypasses
// access-pattern restrictions and is timed into no histogram.
func (c *Container) Extent() ([]value.Tuple, error) {
	if d, ok := c.layout.(dumper); ok {
		return d.dump()
	}
	it, err := c.read(context.Background(), nil, nil)
	if err != nil {
		return nil, err
	}
	return engine.DrainBatches(it)
}

// Open issues one access with equality filters on view columns (each
// filter's column within the view's arity). ctx bounds the store's
// simulated service time; extra, when non-nil, also receives the store's
// counts. The access is timed into the store's latency histogram.
func (c *Container) Open(ctx context.Context, filters []engine.EqFilter, extra *engine.Counters) (engine.BatchIterator, error) {
	it, err := c.read(ctx, filters, extra)
	if err != nil {
		return nil, err
	}
	return engine.TimeBatches(c.hist, it), nil
}

// Drop removes the container and its contents.
func (c *Container) Drop() error { return c.drop() }

// tables is what the relational and parallel stores have in common.
type tables interface {
	InsertMany(table string, rows []value.Tuple) error
	DeleteMany(table string, rows []value.Tuple) (int, error)
	CreateIndex(table, column string) error
	SelectBatchCounted(ctx context.Context, table string, filters []engine.EqFilter, project []int, extra *engine.Counters) (engine.BatchIterator, error)
	DropTable(name string) error
}

// tableLayout: a table named Collection, one column per view column.
type tableLayout struct {
	st tables
	where
}

func (t *tableLayout) insert(rows []value.Tuple) error { return t.st.InsertMany(t.Collection, rows) }
func (t *tableLayout) remove(rows []value.Tuple) (int, error) {
	return t.st.DeleteMany(t.Collection, rows)
}
func (t *tableLayout) index() error {
	for _, c := range t.IndexCols {
		if err := t.st.CreateIndex(t.Collection, t.Columns[c]); err != nil {
			return err
		}
	}
	return nil
}
func (t *tableLayout) read(ctx context.Context, filters []engine.EqFilter, extra *engine.Counters) (engine.BatchIterator, error) {
	return t.st.SelectBatchCounted(ctx, t.Collection, filters, nil, extra)
}
func (t *tableLayout) drop() error { return t.st.DropTable(t.Collection) }

type relLayout struct {
	tableLayout
	rel *relstore.Store
}

func (r *relLayout) create() error {
	_, err := r.rel.CreateTable(r.Collection, r.Columns...)
	return err
}
func (r *relLayout) exists() bool { _, err := r.rel.Table(r.Collection); return err == nil }

// parLayout: the table is hash-partitioned on column PartitionCol.
type parLayout struct {
	tableLayout
	par *parstore.Store
}

func (p *parLayout) create() error {
	_, err := p.par.CreateTable(p.Collection, p.Columns[p.PartitionCol], p.Columns...)
	return err
}
func (p *parLayout) exists() bool { _, err := p.par.Table(p.Collection); return err == nil }

// KVKey renders a value as a key-value store key. The loader and the
// planner must agree on this encoding.
func KVKey(v value.Value) string { return v.Key() }

// kvLayout: whole tuples appended under the KVKey of column KeyCol.
type kvLayout struct {
	st *kvstore.Store
	where
}

func (k *kvLayout) create() error { return k.st.CreateCollection(k.Collection) }
func (k *kvLayout) exists() bool  { _, err := k.st.Len(k.Collection); return err == nil }
func (k *kvLayout) insert(rows []value.Tuple) error {
	for _, r := range rows {
		if err := k.st.Append(k.Collection, KVKey(r[k.KeyCol]), r); err != nil {
			return err
		}
	}
	return nil
}
func (k *kvLayout) remove(rows []value.Tuple) (int, error) {
	found := 0
	for _, r := range rows {
		n, err := k.st.DeleteTuple(k.Collection, KVKey(r[k.KeyCol]), r)
		if err != nil {
			return found, err
		}
		if n > 0 {
			found++
		}
	}
	return found, nil
}
func (k *kvLayout) index() error { return nil }

// read needs the key: the only access path of the store. Filters on other
// columns are applied to the fetched tuples.
func (k *kvLayout) read(ctx context.Context, filters []engine.EqFilter, extra *engine.Counters) (engine.BatchIterator, error) {
	var key value.Value
	for _, f := range filters {
		if f.Col == k.KeyCol {
			key = f.Val
		}
	}
	if key == nil {
		return nil, fmt.Errorf("translate: key-value fragment %q accessed without its key (column %d)", k.frag, k.KeyCol)
	}
	it, err := k.st.GetBatchCounted(ctx, k.Collection, KVKey(key), extra)
	if err != nil || len(filters) == 1 {
		return it, err
	}
	rest := make([]engine.EqFilter, 0, len(filters)-1)
	for _, f := range filters {
		if f.Col != k.KeyCol {
			rest = append(rest, f)
		}
	}
	return &engine.BatchFilter{In: it, Filters: rest}, nil
}

// dump enumerates through the store's maintenance dump, not the keyed
// read path.
func (k *kvLayout) dump() ([]value.Tuple, error) { return k.st.Dump(k.Collection) }
func (k *kvLayout) drop() error                  { return k.st.DropCollection(k.Collection) }

// docLayout: one document per tuple, view column i at path DocPaths[i].
type docLayout struct {
	st *docstore.Store
	where
}

func (d *docLayout) create() error { return d.st.CreateCollection(d.Collection) }
func (d *docLayout) exists() bool  { _, err := d.st.Len(d.Collection); return err == nil }
func (d *docLayout) insert(rows []value.Tuple) error {
	for _, r := range rows {
		doc, err := docFromPaths(d.DocPaths, r)
		if err != nil {
			return err
		}
		if err := d.st.Insert(d.Collection, doc); err != nil {
			return err
		}
	}
	return nil
}
func (d *docLayout) remove(rows []value.Tuple) (int, error) {
	return d.st.DeleteTuples(d.Collection, d.DocPaths, rows)
}
func (d *docLayout) index() error {
	for _, c := range d.IndexCols {
		if err := d.st.CreateIndex(d.Collection, d.DocPaths[c]); err != nil {
			return err
		}
	}
	return nil
}
func (d *docLayout) read(ctx context.Context, filters []engine.EqFilter, extra *engine.Counters) (engine.BatchIterator, error) {
	pf := make([]docstore.PathFilter, len(filters))
	for i, f := range filters {
		pf[i] = docstore.PathFilter{Path: d.DocPaths[f.Col], Val: f.Val}
	}
	return d.st.FindTuplesBatchCounted(ctx, d.Collection, pf, d.DocPaths, extra)
}
func (d *docLayout) drop() error { return d.st.DropCollection(d.Collection) }

// textLayout: one flat document per tuple, view column i in field
// Columns[i]; TextField is tokenized.
type textLayout struct {
	st *textstore.Store
	where
}

func (t *textLayout) create() error { return t.st.CreateCollection(t.Collection, t.TextField) }
func (t *textLayout) exists() bool  { _, err := t.st.Len(t.Collection); return err == nil }
func (t *textLayout) insert(rows []value.Tuple) error {
	for _, r := range rows {
		if err := t.st.Insert(t.Collection, t.fields(r)); err != nil {
			return err
		}
	}
	return nil
}
func (t *textLayout) remove(rows []value.Tuple) (int, error) {
	criteria := make([]map[string]value.Value, len(rows))
	for i, r := range rows {
		criteria[i] = t.fields(r)
	}
	return t.st.DeleteMany(t.Collection, criteria)
}
func (t *textLayout) fields(r value.Tuple) map[string]value.Value {
	doc := make(map[string]value.Value, len(t.Columns))
	for i, col := range t.Columns {
		doc[col] = r[i]
	}
	return doc
}
func (t *textLayout) index() error { return nil }
func (t *textLayout) read(ctx context.Context, filters []engine.EqFilter, extra *engine.Counters) (engine.BatchIterator, error) {
	q := textstore.Query{Project: t.Columns}
	for _, f := range filters {
		q.Fields = append(q.Fields, textstore.FieldFilter{Field: t.Columns[f.Col], Val: f.Val})
	}
	return t.st.SearchBatchCounted(ctx, t.Collection, q, extra)
}
func (t *textLayout) drop() error { return t.st.DropCollection(t.Collection) }

// docFromPaths builds one document with each dotted path set to the
// corresponding tuple value.
func docFromPaths(paths []string, row value.Tuple) (*value.Doc, error) {
	root := &value.Doc{DKind: value.DocObject}
	for i, p := range paths {
		cur := root
		segs := strings.Split(p, ".")
		for _, seg := range segs[:len(segs)-1] {
			next, ok := cur.Get(seg)
			if !ok {
				next = &value.Doc{DKind: value.DocObject}
				setField(cur, seg, next)
			} else if next.DKind != value.DocObject {
				return nil, fmt.Errorf("translate: path %q collides with scalar", p)
			}
			cur = next
		}
		setField(cur, segs[len(segs)-1], value.DScalar(row[i]))
	}
	return root, nil
}

// setField sets or replaces one field, keeping fields sorted by name (the
// value.Doc invariant Get's binary search relies on).
func setField(d *value.Doc, name string, v *value.Doc) {
	i := sort.Search(len(d.Fields), func(i int) bool { return d.Fields[i].Name >= name })
	if i < len(d.Fields) && d.Fields[i].Name == name {
		d.Fields[i].Val = v
		return
	}
	d.Fields = slices.Insert(d.Fields, i, value.Field{Name: name, Val: v})
}
