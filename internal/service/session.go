package service

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/pivot"
)

// Session is one client's handle on the service. Sessions share the
// service-wide rewriting cache and admission layer; what they add is
// per-client accounting (and an identity for the network front end).
// Safe for concurrent use.
type Session struct {
	svc *Service
	id  uint64

	queries atomic.Int64
	hits    atomic.Int64
	errors  atomic.Int64
	rows    atomic.Int64
	lastUse atomic.Int64 // unix nanos
}

// NewSession registers a new session.
func (s *Service) NewSession() *Session {
	sess := &Session{svc: s, id: s.nextSessID.Add(1)}
	sess.lastUse.Store(time.Now().UnixNano())
	s.sessMu.Lock()
	s.sessions[sess.id] = sess
	s.sessMu.Unlock()
	return sess
}

// Session returns a registered session by ID.
func (s *Service) Session(id uint64) (*Session, bool) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// ID returns the session identifier.
func (sess *Session) ID() uint64 { return sess.id }

// Close unregisters the session. Outstanding queries finish normally.
func (sess *Session) Close() {
	sess.svc.sessMu.Lock()
	delete(sess.svc.sessions, sess.id)
	sess.svc.sessMu.Unlock()
}

// ReapSessions unregisters sessions idle for longer than the given
// duration and reports how many were removed. Long-running front ends
// call this periodically so abandoned network sessions do not accumulate.
func (s *Service) ReapSessions(idle time.Duration) int {
	cutoff := time.Now().Add(-idle).UnixNano()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	n := 0
	for id, sess := range s.sessions {
		if sess.lastUse.Load() < cutoff {
			delete(s.sessions, id)
			n++
		}
	}
	return n
}

// SessionStats is a point-in-time copy of one session's accounting.
type SessionStats struct {
	ID                         uint64
	Queries, CacheHits, Errors int64
	RowsServed                 int64
	LastUsed                   time.Time
}

// Stats reads the session counters.
func (sess *Session) Stats() SessionStats {
	return SessionStats{
		ID:         sess.id,
		Queries:    sess.queries.Load(),
		CacheHits:  sess.hits.Load(),
		Errors:     sess.errors.Load(),
		RowsServed: sess.rows.Load(),
		LastUsed:   time.Unix(0, sess.lastUse.Load()),
	}
}

// Query answers a conjunctive query on behalf of this session.
func (sess *Session) Query(ctx context.Context, q pivot.CQ) (*Result, error) {
	r, err := sess.QueryRows(ctx, q)
	if err != nil {
		return nil, err
	}
	return r.Materialize()
}

// QueryText answers a surface-language query on behalf of this session.
func (sess *Session) QueryText(ctx context.Context, language, text string) (*Result, error) {
	r, err := sess.QueryTextRows(ctx, language, text)
	if err != nil {
		return nil, err
	}
	return r.Materialize()
}

// QueryRows answers a conjunctive query as a streaming cursor on behalf
// of this session. The session's row/error accounting is finalized when
// the cursor closes.
func (sess *Session) QueryRows(ctx context.Context, q pivot.CQ) (*Rows, error) {
	sess.queries.Add(1)
	sess.lastUse.Store(time.Now().UnixNano())
	sess.svc.metrics.queries.Add(1)
	return sess.svc.canonOpen(ctx, sess, q, 0)
}

// QueryTextRows answers a surface-language query as a streaming cursor on
// behalf of this session (see Service.QueryTextRows).
func (sess *Session) QueryTextRows(ctx context.Context, language, text string) (*Rows, error) {
	return sess.svc.queryText(ctx, sess, language, text)
}
