package exec

import (
	"sync"
	"time"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

// Profile is the opt-in per-operator execution profiler (EXPLAIN
// ANALYZE): when set on the Ctx, every plan node's iterator is wrapped
// with cumulative wall time, delivered rows and batches. Attach a fresh
// Profile per execution; Tree renders the measurements plan-shaped after
// the cursor drains. When Ctx.Prof is nil — the default — openNode is a
// direct call with no wrapper, no timestamp and no allocation, so
// unprofiled executions pay nothing.
//
// Cumulative semantics: an operator's time includes its children (the
// wrapped iterator's NextBatch pulls from the child inside the timed
// window), matching the EXPLAIN ANALYZE convention; Open-time work
// (hash-table builds that run inside a child's first NextBatch) is
// charged to the operator that performs it.
type Profile struct {
	mu sync.Mutex
	m  map[Node]*OpStats
}

// OpStats accumulates one operator's measurements. Fields are plain
// (a plan executes single-goroutine); the map above is mutex-guarded
// because a hash join opens its build input lazily mid-drain.
type OpStats struct {
	Time    time.Duration
	Rows    int64
	Batches int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{m: map[Node]*OpStats{}} }

func (p *Profile) stats(n Node) *OpStats {
	p.mu.Lock()
	st := p.m[n]
	if st == nil {
		st = &OpStats{}
		p.m[n] = st
	}
	p.mu.Unlock()
	return st
}

// OpProfile is one node of the rendered EXPLAIN ANALYZE tree.
type OpProfile struct {
	// Op is the operator's plan label (store attribution included for
	// leaves and bind joins, e.g. "pg.access(frag)" or
	// "BatchBindJoin[1 bind cols, dedup] ← redis.fetch(cart)").
	Op string `json:"op"`
	// Columns is the operator's output schema.
	Columns []string `json:"columns,omitempty"`
	// Rows and Batches count what the operator delivered.
	Rows    int64 `json:"rows"`
	Batches int64 `json:"batches"`
	// TimeUs is the cumulative wall time (children included), µs.
	TimeUs   int64        `json:"timeUs"`
	Children []*OpProfile `json:"children,omitempty"`
}

// Tree renders the profile plan-shaped from the given root.
func (p *Profile) Tree(root Node) *OpProfile {
	if p == nil || root == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tree(root)
}

func (p *Profile) tree(n Node) *OpProfile {
	op := &OpProfile{Op: n.Label(), Columns: append([]string(nil), n.Schema()...)}
	if st := p.m[n]; st != nil {
		op.Rows, op.Batches, op.TimeUs = st.Rows, st.Batches, st.Time.Microseconds()
	}
	for _, c := range n.Children() {
		op.Children = append(op.Children, p.tree(c))
	}
	return op
}

// openNode opens a plan node through the profiling/tracing hook: the
// shared child-open path every operator (and the root open in exec.Open)
// goes through. Plain executions take the first branch — a single
// dynamic call, nothing else; traced executions record each operator
// open as a span; profiled executions additionally wrap the iterator.
func openNode(ec *Ctx, n Node) (engine.BatchIterator, error) {
	if ec == nil || (ec.Prof == nil && ec.Trace == nil) {
		return n.Open(ec)
	}
	t0 := time.Now()
	it, err := n.Open(ec)
	d := time.Since(t0)
	ec.Trace.Add("open "+n.Label(), ec.Span, t0, d)
	if err != nil {
		return nil, err
	}
	if ec.Prof == nil {
		return it, nil
	}
	st := ec.Prof.stats(n)
	st.Time += d
	return &profIter{in: it, st: st}, nil
}

// profIter times and counts one operator's batch stream.
type profIter struct {
	in engine.BatchIterator
	st *OpStats
}

func (it *profIter) NextBatch(dst *value.Batch) (int, error) {
	t0 := time.Now()
	n, err := it.in.NextBatch(dst)
	it.st.Time += time.Since(t0)
	if n > 0 {
		it.st.Rows += int64(n)
		it.st.Batches++
	}
	return n, err
}

func (it *profIter) Close() { it.in.Close() }
