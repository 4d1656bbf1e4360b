package service

import (
	"sync"
	"time"

	"repro/internal/lang"
	"repro/internal/pivot"
	"repro/internal/value"
)

// The shape cache sits in front of the parsers. Ad-hoc text queries that
// differ only in their literals parse and canonicalize to one Fingerprint
// whose Args are those literals, so the cache keeps, per text shape, that
// Fingerprint without Args plus, for each Args index, the literal that
// supplies it. A hit scans the text once (lang.Shape), builds fresh Args and
// goes straight to the rewriting cache and the prepared bind path: no
// parse, no canonicalization.
//
// The key is the language, the token shape (literals masked by kind) and
// the literals' equality pattern: Canonicalize merges equal constants into
// one parameter, so '1','1' and '1','2' are different entries. Entries are
// purely syntactic and the schema is fixed per Service, so nothing
// invalidates them; the rewriting cache behind them still checks catalog
// epochs.
const (
	shapeShards       = 16
	maxShapesPerShard = 64 // 1 024 entries in all; a full shard evicts one
	maxShapeLiterals  = 32 // texts with more literals are not cached
	shapeKeyCap       = 256
)

type shapeCache struct {
	shards [shapeShards]shapeShard
}

type shapeShard struct {
	mu sync.RWMutex
	m  map[string]*shapeEntry
}

// shapeEntry is what one key canonicalizes to: fp without Args, and src[j]
// the index of the literal that supplies Args[j].
type shapeEntry struct {
	fp  Fingerprint
	src []int
}

func newShapeCache() *shapeCache {
	c := &shapeCache{}
	for i := range c.shards {
		c.shards[i].m = map[string]*shapeEntry{}
	}
	return c
}

func (c *shapeCache) shard(key []byte) *shapeShard {
	h := uint32(2166136261) // FNV-1a
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return &c.shards[h%shapeShards]
}

func (c *shapeCache) get(key []byte) *shapeEntry {
	sh := c.shard(key)
	sh.mu.RLock()
	e := sh.m[string(key)]
	sh.mu.RUnlock()
	return e
}

// put stores e under key. A full shard evicts an arbitrary entry first (Go
// map iteration order), so the cache never refuses a shape.
func (c *shapeCache) put(key []byte, e *shapeEntry) {
	sh := c.shard(key)
	sh.mu.Lock()
	if _, ok := sh.m[string(key)]; !ok && len(sh.m) >= maxShapesPerShard {
		for k := range sh.m {
			delete(sh.m, k)
			break
		}
	}
	sh.m[string(key)] = e
	sh.mu.Unlock()
}

// len reports the number of cached shapes.
func (c *shapeCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
	}
	return n
}

// scanShape appends text's cache key to key and its literals to lits. It
// declines (ok = false) for a language the service would refuse, a text
// lang.Shape declines, and a text with more than maxShapeLiterals literals.
func (s *Service) scanShape(key []byte, lits []lang.Literal, language, text string) ([]byte, []lang.Literal, bool) {
	switch language {
	case "sql", "flwor":
		if s.opts.Schema == nil {
			return key, lits, false
		}
		key = append(key, language[0])
	case "cq", "":
		key = append(key, 'c')
	default:
		return key, lits, false
	}
	key, lits, ok := lang.Shape(text, key, lits)
	if !ok || len(lits) > maxShapeLiterals {
		return key, lits, false
	}
	// Equality pattern: per literal, the first literal equal to it. A 0x00
	// ends the shape (no token encodes to an empty item).
	key = append(key, 0x00)
	for i, l := range lits {
		k := i
		for j := range lits[:i] {
			if lits[j].Equal(l) {
				k = j
				break
			}
		}
		key = append(key, byte(k))
	}
	return key, lits, true
}

// textFingerprint resolves a text query to its fingerprint and bind
// arguments: through the shape cache when the text's key is cached, else by
// parsing and canonicalizing, learning the key when that is provably
// value-independent. parse and canon are the two phases' times; on a hit
// parse is the scan, lookup and Args build, and canon is 0. Errors are
// exactly parseText's and Canonicalize's.
func (s *Service) textFingerprint(language, text string) (fp Fingerprint, args []value.Value, parse, canon time.Duration, err error) {
	t0 := time.Now()
	var keyBuf [shapeKeyCap]byte
	var litBuf [maxShapeLiterals]lang.Literal
	key, lits, scanned := s.scanShape(keyBuf[:0], litBuf[:0], language, text)
	if scanned {
		if e := s.shapes.get(key); e != nil {
			args = make([]value.Value, len(e.src))
			for j, i := range e.src {
				args[j] = literalValue(lits[i])
			}
			s.metrics.shapeHits.Add(1)
			return e.fp, args, time.Since(t0), 0, nil
		}
	}
	q, err := s.parseText(language, text)
	if err != nil {
		s.metrics.shapeDeclines.Add(1)
		return Fingerprint{}, nil, 0, 0, err
	}
	t1 := time.Now()
	parse = t1.Sub(t0)
	if fp, err = Canonicalize(q); err != nil {
		s.metrics.shapeDeclines.Add(1)
		return Fingerprint{}, nil, 0, 0, err
	}
	if scanned {
		if e := newShapeEntry(fp, q, lits); e != nil {
			s.shapes.put(key, e)
			s.metrics.shapeMisses.Add(1)
			return fp, fp.Args, parse, time.Since(t1), nil
		}
	}
	s.metrics.shapeDeclines.Add(1)
	return fp, fp.Args, parse, time.Since(t1), nil
}

// newShapeEntry builds the cache entry for a parsed and canonicalized text,
// or returns nil when another text of the same key could canonicalize
// differently. Canonicalize sorts body atoms by a key that includes
// constant values, so the entry requires:
//   - distinct body predicates: the sort then depends on predicate names
//     alone, never on a value;
//   - every literal supplies exactly one Args entry: a literal that is not
//     a body constant (a head-only literal stays in Key) declines.
func newShapeEntry(fp Fingerprint, q pivot.CQ, lits []lang.Literal) *shapeEntry {
	for i := range q.Body {
		for j := range q.Body[:i] {
			if q.Body[i].Pred == q.Body[j].Pred {
				return nil
			}
		}
	}
	src := make([]int, len(fp.Args))
	for j := range src {
		src[j] = -1
	}
	for i, l := range lits {
		v, j := literalValue(l), 0
		for j < len(fp.Args) && !value.Equal(v, fp.Args[j]) {
			j++
		}
		if j == len(fp.Args) {
			return nil
		}
		if src[j] < 0 {
			src[j] = i
		}
	}
	for _, i := range src {
		if i < 0 {
			return nil
		}
	}
	tmpl := fp
	tmpl.Args = nil
	return &shapeEntry{fp: tmpl, src: src}
}

// literalValue is the bind argument Canonicalize makes of the literal's
// constant.
func literalValue(l lang.Literal) value.Value {
	switch l.Kind {
	case lang.LitString:
		return value.Str(l.Str)
	case lang.LitInt:
		return value.Int(l.Int)
	default:
		return value.Float(l.Float)
	}
}
