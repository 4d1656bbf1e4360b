package service

import (
	"context"
	"errors"
	"hash/fnv"
	"sync"

	"repro/internal/core"
)

// planCache is the shared, sharded rewriting cache. Entries are keyed by
// query fingerprint and hold a *core.Prepared (the expensive PACB
// rewriting plus its one physical plan, whose parameters are slots
// filled per execution): it is the mediator's only plan cache. Concurrent
// cold misses of one
// fingerprint coalesce onto a single rewrite (single-flight): the first
// caller becomes the leader and runs PACB; followers wait on the entry's
// ready channel instead of each re-running the backchase.
//
// Invalidation is epoch-based: every entry records the core.System
// catalog epoch it was prepared under; a lookup that finds an entry from
// an older epoch treats it as a miss and replaces it. Fragment
// registration/drop therefore invalidates lazily, per entry, instead of
// flushing the world under a global lock.
type planCache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

type cacheEntry struct {
	epoch uint64
	ready chan struct{} // closed once prep/err are set
	prep  *core.Prepared
	err   error
}

func newPlanCache(shards int) *planCache {
	if shards < 1 {
		shards = 1
	}
	c := &planCache{shards: make([]cacheShard, shards)}
	for i := range c.shards {
		c.shards[i].m = map[string]*cacheEntry{}
	}
	return c
}

func (c *planCache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%uint32(len(c.shards))]
}

// lookupOutcome says how a cache access was served.
type lookupOutcome int

const (
	outcomeHit       lookupOutcome = iota // entry was ready
	outcomeCoalesced                      // waited on another caller's rewrite
	outcomeMiss                           // this caller ran the rewrite
)

// get returns the entry for a fingerprint, running prepare exactly once
// per (key, epoch) across concurrent callers. epoch is the catalog
// generation observed by the caller; ctx bounds a follower's wait.
func (c *planCache) get(ctx context.Context, key string, epoch uint64, prepare func() (*core.Prepared, error)) (*core.Prepared, lookupOutcome, error) {
	sh := c.shard(key)
	sh.mu.Lock()
	e := sh.m[key]
	if e != nil && e.epoch < epoch {
		// Stale generation: replace. A leader still filling the old entry
		// completes harmlessly against its own (now unreachable) entry.
		// Entries from a NEWER epoch than the caller observed are kept —
		// they are at least as fresh as what the caller would build.
		e = nil
	}
	if e == nil {
		e = &cacheEntry{epoch: epoch, ready: make(chan struct{})}
		sh.m[key] = e
		sh.mu.Unlock()
		prep, err := prepare()
		e.prep, e.err = prep, err
		close(e.ready)
		if err != nil {
			// Deterministic failures (no plan, infeasible) stay cached for
			// the epoch — retrying cannot change them until the catalog
			// does. Context errors are transient (the leader's caller timed
			// out); drop the entry so the next caller retries the rewrite.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				sh.mu.Lock()
				if sh.m[key] == e {
					delete(sh.m, key)
				}
				sh.mu.Unlock()
			}
			return nil, outcomeMiss, err
		}
		return prep, outcomeMiss, nil
	}
	sh.mu.Unlock()

	outcome := outcomeHit
	select {
	case <-e.ready:
	default:
		outcome = outcomeCoalesced
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, outcome, ctx.Err()
		}
	}
	return e.prep, outcome, e.err
}

// len reports the number of cached entries (ready or in flight).
func (c *planCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}
