package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/value"
)

const (
	subWindows = 5 // the window is cut in this many equal parts
	// slabPerSecond sizes the latency slabs: more requests per second and
	// client than this would need the window cut short, and fails the run.
	slabPerSecond = 150_000

	writeBatchRows = 16   // base rows per insert (and per delete) op
	deleteLag      = 64   // a batch deletes what was inserted this many batches before
	writeRing      = 2048 // pre-built write batches, reused in order
	probeBatches   = 8192 // batches of the write probe after the window
)

// outcome is what one request returned to its client.
type outcome struct {
	rows  int64
	ttfr  time.Duration // call → first chunk of rows available
	total time.Duration // call → cursor drained and closed
	end   time.Time
	miss  bool // the request ran the rewrite itself: no cache hit, not coalesced
	err   error
}

// target sends one request; the generator loop is tested against a no-op.
type target func(ctx context.Context, q *query) outcome

// reader is one closed-loop client: it sends the next request of its stream
// as soon as the previous reply is drained.
type reader struct {
	stream []int32
	pos    int
	send   target
	// onWrap runs (untimed) each time the stream starts over.
	onWrap func() error

	lat, ttfr []int64 // per completed request, in completion order
	bounds    [subWindows]int
	subRows   [subWindows]int64
	attempted int64
	failed    int64
	misses    int64
	err       error // first failure, for the report
}

// open sends q the way it was built to be sent and returns the cursor.
func open(ctx context.Context, sess *service.Session, q *query) (*service.Rows, error) {
	switch {
	case q.stmt != nil:
		return q.stmt.ExecuteRows(ctx, q.args...)
	case q.text != "":
		return sess.QueryTextRows(ctx, q.lang, q.text)
	}
	return sess.QueryRows(ctx, q.cq)
}

// throughService returns the target that sends requests on one session.
func throughService(sess *service.Session) target {
	return func(ctx context.Context, q *query) outcome {
		var o outcome
		start := time.Now()
		r, err := open(ctx, sess, q)
		if o.err = err; err != nil {
			o.end = time.Now()
			return o
		}
		chunk, err := r.NextChunk()
		o.ttfr = time.Since(start)
		for chunk != nil && err == nil {
			o.rows += int64(len(chunk))
			chunk, err = r.NextChunk()
		}
		o.miss = !r.CacheHit() && !r.Coalesced()
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		o.err = err
		o.end = time.Now()
		o.total = o.end.Sub(start)
		return o
	}
}

// run sends requests from t0 until nSub sub-windows of length sub have
// passed, recording each completed request in the sub-window it completed
// in. It allocates nothing: the slabs and the stream exist beforehand.
func (r *reader) run(ctx context.Context, queries []query, t0 time.Time, sub time.Duration, nSub int) {
	k, next := 0, t0.Add(sub)
	for {
		q := &queries[r.stream[r.pos]]
		if r.pos++; r.pos == len(r.stream) {
			r.pos = 0
			if r.onWrap != nil {
				if err := r.onWrap(); err != nil && r.err == nil {
					r.err = err
				}
			}
		}
		o := r.send(ctx, q)
		for !o.end.Before(next) {
			r.bounds[k] = len(r.lat)
			k++
			next = next.Add(sub)
			if k == nSub {
				return
			}
		}
		r.attempted++
		switch {
		case o.err != nil:
			r.failed++
			if r.err == nil {
				r.err = o.err
			}
		case len(r.lat) == cap(r.lat):
			r.failed++
			if r.err == nil {
				r.err = errors.New("latency slab full: raise slabPerSecond")
			}
		default:
			r.lat = append(r.lat, int64(o.total))
			r.ttfr = append(r.ttfr, int64(o.ttfr))
			r.subRows[k] += o.rows
			if o.miss {
				r.misses++
			}
		}
	}
}

// reset forgets what the warm-up recorded.
func (r *reader) reset() {
	r.lat, r.ttfr = r.lat[:0], r.ttfr[:0]
	r.bounds, r.subRows = [subWindows]int{}, [subWindows]int64{}
	r.attempted, r.failed, r.misses = 0, 0, 0
}

// sub returns the samples of slab (lat or ttfr) that fell in sub-window k.
func (r *reader) sub(slab []int64, k int) []int64 {
	lo := 0
	if k > 0 {
		lo = r.bounds[k-1]
	}
	return slab[lo:r.bounds[k]]
}

// writer applies pre-built write batches one after the other.
type writer struct {
	svc     *service.Service
	batches [][]service.WriteOp // each: insert op, then the lagged delete op
	n       int                 // batches applied so far

	lat       []int64 // per applied batch
	rows      []int64 // base rows that batch inserted and deleted
	attempted int64
	failed    int64
	err       error
}

// run applies batches until the deadline passes or limit batches are done
// (a zero deadline or limit does not stop it).
func (w *writer) run(ctx context.Context, deadline time.Time, limit int) {
	for done := 0; limit == 0 || done < limit; done++ {
		ops := w.batches[w.n%len(w.batches)]
		if w.n < deleteLag {
			ops = ops[:1] // nothing old enough to delete yet
		}
		t := time.Now()
		if !deadline.IsZero() && !t.Before(deadline) {
			break
		}
		res, err := w.svc.WriteBatch(ctx, ops)
		d := time.Since(t)
		w.attempted++
		w.n++
		if err != nil {
			w.failed++
			if w.err == nil {
				w.err = err
			}
			continue
		}
		if len(w.lat) < cap(w.lat) {
			w.lat = append(w.lat, int64(d))
			w.rows = append(w.rows, int64(res.Inserted+res.Deleted))
		}
	}
}

// drain deletes (untimed) the batches still inserted, so the base relations
// are back at their generated size.
func (w *writer) drain(ctx context.Context) error {
	for i := max(0, w.n-deleteLag); i < w.n; i++ {
		ins := w.batches[i%len(w.batches)][0]
		if _, err := w.svc.Delete(ctx, ins.Relation, ins.Rows...); err != nil {
			return fmt.Errorf("drain %s: %w", ins.Relation, err)
		}
	}
	w.n = 0
	return nil
}

// genWrites pre-builds the write ring: batch i inserts writeBatchRows fresh
// rows into the next relation of mix and deletes the rows batch
// i-deleteLag inserted, so relation sizes stay level.
func genWrites(d *deployment, rng *rand.Rand, mix []string) [][]service.WriteOp {
	out := make([][]service.WriteOp, writeRing)
	for i := range out {
		rel := mix[i%len(mix)]
		rows := make([]value.Tuple, writeBatchRows)
		for j := range rows {
			rows[j] = d.freshRow(rel, i*writeBatchRows+j, rng)
		}
		out[i] = []service.WriteOp{{Relation: rel, Rows: rows}, {}}
	}
	for i := range out {
		old := out[(i-deleteLag+writeRing)%writeRing][0]
		out[i][1] = service.WriteOp{Delete: true, Relation: old.Relation, Rows: old.Rows}
	}
	return out
}

// window runs the readers (and, when w is non-nil, the writer beside them)
// for nSub sub-windows of length sub.
func window(ctx context.Context, queries []query, readers []*reader, w *writer, sub time.Duration, nSub int) {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(ctx, queries, t0, sub, nSub)
		}()
	}
	if w != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ctx, t0.Add(time.Duration(nSub)*sub), 0)
		}()
	}
	wg.Wait()
}
