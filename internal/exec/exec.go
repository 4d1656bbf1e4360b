// Package exec is ESTOCADA's lightweight runtime execution engine (paper
// §III, "Evaluation of non-delegated operations"): it evaluates the
// "last-step" operations that the underlying stores cannot — joins across
// stores (most key-value and document stores do not support joins), access
// to sources with binding restrictions via the BindJoin operator, residual
// selections, projection, duplicate elimination, grouping/aggregation,
// nesting, and nested result (document) construction.
//
// Plans are trees of Nodes; each node exposes the variable names of its
// output columns (Schema) and opens to a vectorized batch iterator
// (engine.BatchIterator): operators exchange value.Batch slabs of a few
// hundred tuples per call, amortizing virtual dispatch, cancellation
// checks and counter attribution. The row-at-a-time surface is the Rows
// cursor (Next/Tuple) at the top of a plan.
package exec

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engines/engine"
	"repro/internal/obs"
	"repro/internal/value"
)

// Schema names the variables bound by each output column of a node.
type Schema []string

// Pos returns the column of a variable, or -1.
func (s Schema) Pos(name string) int {
	for i, n := range s {
		if n == name {
			return i
		}
	}
	return -1
}

// String renders the schema.
func (s Schema) String() string { return "(" + strings.Join(s, ", ") + ")" }

// Ctx carries per-execution state through a plan: an optional
// cancellation context and an optional per-store counter attribution sink.
// Plans themselves are immutable after construction and shared freely by
// concurrent executions; everything execution-specific lives here (and in
// the iterators Open returns). A nil *Ctx is valid and means "no
// cancellation, no attribution".
type Ctx struct {
	// Context cancels the execution (checked once per drained batch; a
	// single in-flight store access is not interrupted). Nil = background.
	Context context.Context
	// Counters attributes store work to this execution. Nil = off.
	Counters *engine.ExecCounters
	// Prof, when set, wraps every operator with the EXPLAIN ANALYZE
	// profiler (see Profile). Nil = profiling off, zero overhead.
	Prof *Profile
	// Trace, when set, records operator opens and bind-join store
	// fetches as spans of the request trace, parented under Span.
	// Nil = tracing off, zero overhead.
	Trace *obs.Trace
	// Span is the parent span exec-emitted spans attach under
	// (typically the request trace's root).
	Span obs.SpanID
	// Args are the execution's arguments: the plan's slot Arg(i) reads
	// Args[i] when it opens. A plan with slots must be opened with an
	// argument for each.
	Args []value.Value
}

// Arg is a slot of a plan: a value the planner places where a constant
// goes and that stands for the execution's argument Ctx.Args[i]. The
// operators that hold constants fill their slots (Ctx.Fill) when they
// open, so a slot never reaches a store or a row.
type Arg int

// Kind implements value.Value: a slot has no kind of its own.
func (Arg) Kind() value.Kind { return -1 }

// Key implements value.Value.
func (a Arg) Key() string { return "?" + strconv.Itoa(int(a)) }

// String renders the slot as $1, $2, ... in plan explanations.
func (a Arg) String() string { return "$" + strconv.Itoa(int(a)+1) }

// Fill returns v, or the execution's argument when v is a slot.
//
//lint:hot
func (c *Ctx) Fill(v value.Value) value.Value {
	if a, ok := v.(Arg); ok {
		return c.Args[a]
	}
	return v
}

// Err reports the cancellation state. Nil-receiver safe.
func (c *Ctx) Err() error {
	if c == nil || c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// Ctx returns the execution's cancellation context, never nil
// (context.Background when unset). Nil-receiver safe; this is what leaf
// sources hand to the stores so latency waits and injected stalls respect
// the query deadline.
func (c *Ctx) Ctx() context.Context {
	if c == nil || c.Context == nil {
		return context.Background()
	}
	return c.Context
}

// StoreCounters returns this execution's counter cell for a store, or nil
// when attribution is off. Nil-receiver safe.
func (c *Ctx) StoreCounters(store string) *engine.Counters {
	if c == nil {
		return nil
	}
	return c.Counters.For(store)
}

// Node is one operator of a physical plan.
type Node interface {
	// Schema describes the output columns.
	Schema() Schema
	// Open starts execution, returning the output batch iterator. The Ctx
	// (which may be nil) carries execution-scoped cancellation and counter
	// attribution; nodes pass it to their children.
	Open(ec *Ctx) (engine.BatchIterator, error)
	// Label is a one-line description for plan explanation.
	Label() string
	// Children returns the input nodes (for plan walking/explain).
	Children() []Node
}

// Explain renders a plan tree.
func Explain(n Node) string {
	var sb strings.Builder
	explain(&sb, n, 0)
	return sb.String()
}

func explain(sb *strings.Builder, n Node, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.Label())
	sb.WriteString("  → ")
	sb.WriteString(n.Schema().String())
	sb.WriteByte('\n')
	for _, c := range n.Children() {
		explain(sb, c, depth+1)
	}
}

// Run opens a plan and drains it with no cancellation or attribution.
func Run(n Node) ([]value.Tuple, error) { return RunWith(nil, n) }

// RunWith opens a plan under an execution context and drains it batch by
// batch, checking for cancellation once per drained batch (so a cancelled
// context stops a long scan after at most one batch, not at some
// power-of-two row count). It is the materializing wrapper over the Rows
// cursor; incremental consumers use Open directly.
func RunWith(ec *Ctx, n Node) ([]value.Tuple, error) {
	r, err := Open(ec, n)
	if err != nil {
		return nil, err
	}
	return r.All()
}

// Source wraps a store access (delegated request) as a leaf node.
type Source struct {
	Name string
	Out  Schema
	// BatchFn issues the store request. It receives the execution context
	// so the access can attribute its work (ec may be nil).
	BatchFn func(ec *Ctx) (engine.BatchIterator, error)
}

// Schema implements Node.
func (s *Source) Schema() Schema { return s.Out }

// Open implements Node.
func (s *Source) Open(ec *Ctx) (engine.BatchIterator, error) { return s.BatchFn(ec) }

// Label implements Node.
func (s *Source) Label() string { return s.Name }

// Children implements Node.
func (s *Source) Children() []Node { return nil }

// Values is a leaf over literal rows (tests, constants).
type Values struct {
	Out  Schema
	Rows []value.Tuple
}

func (v *Values) Schema() Schema { return v.Out }
func (v *Values) Open(*Ctx) (engine.BatchIterator, error) {
	return engine.NewSliceBatchIterator(v.Rows), nil
}
func (v *Values) Label() string    { return fmt.Sprintf("Values[%d rows]", len(v.Rows)) }
func (v *Values) Children() []Node { return nil }

// Select applies residual predicates: column=constant and column=column.
type Select struct {
	In      Node
	EqConst []engine.EqFilter
	EqCols  [][2]int
}

func (s *Select) Schema() Schema { return s.In.Schema() }
func (s *Select) Label() string {
	return fmt.Sprintf("BatchSelect[%d const, %d col-eq]", len(s.EqConst), len(s.EqCols))
}
func (s *Select) Children() []Node { return []Node{s.In} }
func (s *Select) Open(ec *Ctx) (engine.BatchIterator, error) {
	in, err := openNode(ec, s.In)
	if err != nil {
		return nil, err
	}
	if len(s.EqConst) == 0 && len(s.EqCols) == 0 {
		return in, nil // vacuous predicate: pass batches straight through
	}
	return &engine.BatchFilter{In: in, Filters: s.EqConst, EqCols: s.EqCols}, nil
}

// Project keeps the named columns, in order. Unknown names yield NULL
// columns (callers validate beforehand; see NewProject).
type Project struct {
	In   Node
	Cols []string
	out  Schema
	pos  []int
}

// NewProject builds a projection, resolving column names against the input
// schema.
func NewProject(in Node, cols []string) (*Project, error) {
	p := &Project{In: in, Cols: cols, out: Schema(cols)}
	for _, c := range cols {
		i := in.Schema().Pos(c)
		if i < 0 {
			return nil, fmt.Errorf("exec: projection column %q not in input schema %v", c, in.Schema())
		}
		p.pos = append(p.pos, i)
	}
	return p, nil
}

func (p *Project) Schema() Schema   { return p.out }
func (p *Project) Label() string    { return "BatchProject" + p.out.String() }
func (p *Project) Children() []Node { return []Node{p.In} }
func (p *Project) Open(ec *Ctx) (engine.BatchIterator, error) {
	in, err := openNode(ec, p.In)
	if err != nil {
		return nil, err
	}
	return &engine.BatchProject{In: in, Cols: p.pos}, nil
}

// HashJoin joins two inputs on their shared schema variables (natural
// join). The right input is materialized into a hash table batch by batch;
// the left streams in batches and probes.
type HashJoin struct {
	Left, Right Node
	// Desc annotates the planner's build-side choice in plan labels (the
	// right input is always the materialized side; the planner swaps its
	// arguments to build on the estimated-smaller input and records the
	// decision here, e.g. "build=left ~12 rows").
	Desc      string
	out       Schema
	leftKeys  []int
	rightKeys []int
	rightKeep []int // right columns appended to output (non-shared)
}

// NewHashJoin builds a natural hash join on the shared variables.
func NewHashJoin(left, right Node) (*HashJoin, error) {
	j := &HashJoin{Left: left, Right: right}
	ls, rs := left.Schema(), right.Schema()
	shared := map[string]bool{}
	for _, v := range ls {
		if rs.Pos(v) >= 0 {
			shared[v] = true
		}
	}
	if len(shared) == 0 {
		// Cross product: legal but flagged in the label.
		j.out = append(append(Schema{}, ls...), rs...)
		for i := range rs {
			j.rightKeep = append(j.rightKeep, i)
		}
		return j, nil
	}
	// Deterministic key order.
	keys := make([]string, 0, len(shared))
	for v := range shared {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	for _, v := range keys {
		j.leftKeys = append(j.leftKeys, ls.Pos(v))
		j.rightKeys = append(j.rightKeys, rs.Pos(v))
	}
	j.out = append(Schema{}, ls...)
	for i, v := range rs {
		if !shared[v] {
			j.out = append(j.out, v)
			j.rightKeep = append(j.rightKeep, i)
		}
	}
	return j, nil
}

func (j *HashJoin) Schema() Schema { return j.out }
func (j *HashJoin) Label() string {
	label := fmt.Sprintf("BatchHashJoin[%d keys]", len(j.leftKeys))
	if len(j.leftKeys) == 0 {
		label = "BatchCrossProduct"
	}
	if j.Desc != "" {
		label += " " + j.Desc
	}
	return label
}
func (j *HashJoin) Children() []Node { return []Node{j.Left, j.Right} }

func (j *HashJoin) Open(ec *Ctx) (engine.BatchIterator, error) {
	lit, err := openNode(ec, j.Left)
	if err != nil {
		return nil, err
	}
	return &hashJoinIter{j: j, ec: ec, left: lit}, nil
}

type hashJoinIter struct {
	j        *HashJoin
	ec       *Ctx
	left     engine.BatchIterator
	table    map[string][]value.Tuple
	built    bool
	buildErr error // build-side (right input) failure, re-reported each call
	lb       *value.Batch
	lbPos    int
	lbDone   bool
	curLeft  value.Tuple
	matches  []value.Tuple
	pos      int
	keyBuf   value.Tuple
	byteBuf  []byte
}

// build materializes the right input into the hash table on the first
// NextBatch, so a build-side failure surfaces through the batch protocol
// like any other stream error instead of being lost at Open time.
func (it *hashJoinIter) build() error {
	it.built = true
	rit, err := openNode(it.ec, it.j.Right)
	if err != nil {
		it.buildErr = err
		return err
	}
	rightRows, err := engine.DrainBatches(rit)
	if err != nil {
		it.buildErr = err
		return err
	}
	it.table = make(map[string][]value.Tuple, len(rightRows))
	for _, r := range rightRows {
		k := string(it.key(r, it.j.rightKeys))
		it.table[k] = append(it.table[k], r)
	}
	return nil
}

// colsKey renders the listed columns of t into dst as canonical key bytes
// via the reusable scratch tuple — the one shared helper behind join and
// bind keys. Probing a table with m[string(colsKey(...))] stays
// allocation-free (Go elides the string conversion for map lookups); only
// inserts materialize key strings. Out-of-range columns render as NULL.
//
//lint:hot
func colsKey(dst []byte, scratch *value.Tuple, t value.Tuple, cols []int) []byte {
	if cap(*scratch) < len(cols) {
		*scratch = make(value.Tuple, len(cols))
	}
	buf := (*scratch)[:len(cols)]
	for i, c := range cols {
		if c >= 0 && c < len(t) {
			buf[i] = t[c]
		} else {
			buf[i] = value.Null{}
		}
	}
	return value.AppendKey(dst[:0], buf)
}

// key renders the join key of t into the iterator's reused buffers.
func (it *hashJoinIter) key(t value.Tuple, cols []int) []byte {
	it.byteBuf = colsKey(it.byteBuf, &it.keyBuf, t, cols)
	return it.byteBuf
}

func (it *hashJoinIter) NextBatch(dst *value.Batch) (int, error) {
	dst.Reset()
	if it.buildErr != nil {
		return 0, it.buildErr
	}
	if !it.built {
		if err := it.build(); err != nil {
			return 0, err
		}
	}
	if it.lb == nil {
		it.lb = value.GetBatch()
	}
	nKeep := len(it.j.rightKeep)
	for !dst.Full() {
		if it.pos < len(it.matches) {
			r := it.matches[it.pos]
			it.pos++
			out := dst.Alloc(len(it.curLeft) + nKeep)
			copy(out, it.curLeft)
			for i, c := range it.j.rightKeep {
				out[len(it.curLeft)+i] = r[c]
			}
			continue
		}
		if it.lbPos >= it.lb.Len() {
			if it.lbDone {
				break
			}
			n, err := it.left.NextBatch(it.lb)
			if err != nil {
				return 0, err
			}
			it.lbPos = 0
			if n == 0 {
				it.lbDone = true
				break
			}
		}
		l := it.lb.Row(it.lbPos)
		it.lbPos++
		it.curLeft = l
		it.matches = it.table[string(it.key(l, it.j.leftKeys))]
		it.pos = 0
	}
	return dst.Len(), nil
}

func (it *hashJoinIter) Close() {
	it.left.Close()
	if it.lb != nil {
		value.PutBatch(it.lb)
		it.lb = nil
		it.lbDone = true
		it.lbPos = 0
	}
}

// BindJoin implements dependent access to a source with binding
// restrictions (paper §III): for every left tuple, the bind columns supply
// the values required by the right source's access pattern (e.g. a
// key-value store's key); Fetch issues the bound request. The batch
// pipeline collects a whole left batch of bind keys, deduplicates them,
// and issues ONE store access per distinct key — duplicate keys within a
// batch share a single round-trip.
type BindJoin struct {
	Left Node
	// BindCols are the left columns whose values parameterize Fetch.
	BindCols []int
	// RightOut names the columns Fetch returns.
	RightOut Schema
	// Fetch issues one bound access. It receives the execution context and
	// the bind values in BindCols order; the bind tuple is only valid for
	// the duration of the call.
	Fetch func(ec *Ctx, bind value.Tuple) (engine.BatchIterator, error)
	// SharedRight marks right columns that rejoin left columns (checked as
	// residual equality); -1 entries are appended to the output.
	SharedRight []int
	// Desc attributes the bound access in plan labels and profiles, e.g.
	// "redis.fetch(cart)" — set by the planner so EXPLAIN trees name the
	// store behind the dependent access.
	Desc    string
	out     Schema
	nAppend int // count of -1 entries in SharedRight
}

// NewBindJoin constructs a bind join. rightOut names the fetched columns;
// columns whose name already occurs in left's schema are checked for
// equality and dropped from the output.
func NewBindJoin(left Node, bindVars []string, rightOut Schema, fetch func(*Ctx, value.Tuple) (engine.BatchIterator, error)) (*BindJoin, error) {
	b := &BindJoin{Left: left, RightOut: rightOut, Fetch: fetch}
	ls := left.Schema()
	for _, v := range bindVars {
		p := ls.Pos(v)
		if p < 0 {
			return nil, fmt.Errorf("exec: bind variable %q not in left schema %v", v, ls)
		}
		b.BindCols = append(b.BindCols, p)
	}
	b.out = append(Schema{}, ls...)
	for _, v := range rightOut {
		if p := ls.Pos(v); p >= 0 {
			b.SharedRight = append(b.SharedRight, p)
		} else {
			b.SharedRight = append(b.SharedRight, -1)
			b.nAppend++
			b.out = append(b.out, v)
		}
	}
	return b, nil
}

func (b *BindJoin) Schema() Schema { return b.out }
func (b *BindJoin) Label() string {
	if b.Desc != "" {
		return fmt.Sprintf("BatchBindJoin[%d bind cols, dedup] ← %s", len(b.BindCols), b.Desc)
	}
	return fmt.Sprintf("BatchBindJoin[%d bind cols, dedup]", len(b.BindCols))
}
func (b *BindJoin) Children() []Node { return []Node{b.Left} }

func (b *BindJoin) Open(ec *Ctx) (engine.BatchIterator, error) {
	lit, err := openNode(ec, b.Left)
	if err != nil {
		return nil, err
	}
	return &bindJoinIter{b: b, ec: ec, left: lit}, nil
}

type bindJoinIter struct {
	b       *BindJoin
	ec      *Ctx
	left    engine.BatchIterator
	lb      *value.Batch
	lbPos   int
	lbDone  bool
	fetched map[string][]value.Tuple // per-left-batch distinct-key cache
	rights  [][]value.Tuple          // per-left-row fetch results, aligned with lb
	curLeft value.Tuple
	right   []value.Tuple
	pos     int
	keyBuf  value.Tuple
	byteBuf []byte
}

// bindKey renders the bind-column values of a left tuple into reused
// scratch buffers and returns its dedup key bytes (alloc-free lookups via
// fetched[string(...)]).
func (it *bindJoinIter) bindKey(l value.Tuple) []byte {
	it.byteBuf = colsKey(it.byteBuf, &it.keyBuf, l, it.b.BindCols)
	return it.byteBuf
}

// prefetch fills the distinct-key cache for the current left batch: one
// store access per distinct bind key (cancellation checked per access),
// and records each left row's fetch result so emission never re-renders
// the bind key.
func (it *bindJoinIter) prefetch() error {
	n := it.lb.Len()
	if cap(it.rights) < n {
		it.rights = make([][]value.Tuple, n)
	} else {
		it.rights = it.rights[:n]
	}
	if it.fetched == nil {
		it.fetched = make(map[string][]value.Tuple, n)
	} else {
		clear(it.fetched)
	}
	for i, l := range it.lb.Rows() {
		k := it.bindKey(l)
		rows, ok := it.fetched[string(k)]
		if !ok {
			if err := it.ec.Err(); err != nil {
				return err
			}
			bind := make(value.Tuple, len(it.b.BindCols))
			for bi, c := range it.b.BindCols {
				bind[bi] = l[c]
			}
			var err error
			if rows, err = it.fetch(bind); err != nil {
				return err
			}
			it.fetched[string(k)] = rows
		}
		it.rights[i] = rows
	}
	return nil
}

// fetch performs one dependent store access and drains it. Traced
// executions time the access and record it as a span named by the
// binding's Desc (the "<store>.fetch(<fragment>)" attribution); the
// untraced path adds nothing.
func (it *bindJoinIter) fetch(bind value.Tuple) ([]value.Tuple, error) {
	tr := traceOf(it.ec)
	if tr == nil {
		rit, err := it.b.Fetch(it.ec, bind)
		if err != nil {
			return nil, err
		}
		return engine.DrainBatches(rit)
	}
	name := it.b.Desc
	if name == "" {
		name = "fetch"
	}
	t0 := time.Now()
	rit, err := it.b.Fetch(it.ec, bind)
	if err != nil {
		tr.Add(name, it.ec.Span, t0, time.Since(t0))
		return nil, err
	}
	rows, err := engine.DrainBatches(rit)
	tr.Add(name, it.ec.Span, t0, time.Since(t0))
	return rows, err
}

// traceOf is the nil-safe trace accessor for an execution.
func traceOf(ec *Ctx) *obs.Trace {
	if ec == nil {
		return nil
	}
	return ec.Trace
}

func (it *bindJoinIter) NextBatch(dst *value.Batch) (int, error) {
	dst.Reset()
	if it.lb == nil {
		it.lb = value.GetBatch()
	}
	for !dst.Full() {
		if it.pos < len(it.right) {
			r := it.right[it.pos]
			it.pos++
			good := true
			for i, lp := range it.b.SharedRight {
				if i >= len(r) {
					good = false
					break
				}
				if lp >= 0 && !value.Equal(r[i], it.curLeft[lp]) {
					good = false
					break
				}
			}
			if !good {
				continue
			}
			out := dst.Alloc(len(it.curLeft) + it.b.nAppend)
			copy(out, it.curLeft)
			w := len(it.curLeft)
			for i, lp := range it.b.SharedRight {
				if lp < 0 {
					out[w] = r[i]
					w++
				}
			}
			continue
		}
		if it.lbPos >= it.lb.Len() {
			if it.lbDone {
				break
			}
			n, err := it.left.NextBatch(it.lb)
			if err != nil {
				return 0, err
			}
			it.lbPos = 0
			if n == 0 {
				it.lbDone = true
				break
			}
			if err := it.prefetch(); err != nil {
				return 0, err
			}
		}
		l := it.lb.Row(it.lbPos)
		it.curLeft, it.right, it.pos = l, it.rights[it.lbPos], 0
		it.lbPos++
	}
	return dst.Len(), nil
}

func (it *bindJoinIter) Close() {
	it.left.Close()
	if it.lb != nil {
		value.PutBatch(it.lb)
		it.lb = nil
		it.lbDone = true
		it.lbPos = 0
	}
}
