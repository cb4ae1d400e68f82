package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"github.com/distec/distec"
)

// Passivation keeps the daemon's resident set bounded while the registry
// holds thousands of durable sessions: the least-recently-used sessions
// beyond -max-resident drop their in-memory coloring (the truth stays on
// disk — every acknowledged batch is journaled before its 200), and the
// next touch rehydrates them through the same open-replay-verify pipeline
// boot recovery uses. Correctness never depends on the victim being idle:
// a batch interrupted by passivation fails with ErrSessionPassivated
// having journaled nothing, and the handler's single retry replays it
// in full against the rehydrated state — exactly once end to end.

// acquire returns the session's live Dynamic, rehydrating it from disk
// first when passivated. ctx bounds the rehydration replay (it is the
// request's context: a caller that gave up must not pin the session lock
// through a long replay). The caller must hold a registry reference (from
// s.session); a session deleted concurrently fails with ErrSessionClosed.
func (s *server) acquire(ctx context.Context, sess *session) (*distec.Dynamic, error) {
	sess.mu.Lock()
	if sess.dropped {
		sess.mu.Unlock()
		return nil, distec.ErrSessionClosed
	}
	if sess.resident.Load() {
		d := sess.d
		sess.mu.Unlock()
		return d, nil
	}
	// Rehydration I/O under sess.mu is the design, not an accident: the
	// session must not serve (or passivate again) while half-restored, and
	// every waiter needs exactly this state before proceeding.
	//distec:nolint lockio
	d, err := s.rehydrateLocked(ctx, sess)
	sess.mu.Unlock()
	if err == nil {
		// The rehydrated session may push the resident set past the limit;
		// make room by passivating the coldest others.
		s.enforceResidency(sess)
	}
	return d, err
}

// rehydrateLocked rebuilds a passivated session through the boot
// recovery's restore path (restoreSession) and reinstalls it as resident.
// ctx aborts the replay (the requester's deadline governs how long a
// rehydration may run). Caller holds sess.mu.
func (s *server) rehydrateLocked(ctx context.Context, sess *session) (*distec.Dynamic, error) {
	start := time.Now()
	d, lg, err := s.restoreSession(ctx, sess.id)
	if err != nil {
		return nil, fmt.Errorf("rehydrate %s: %w", sess.id, err)
	}
	sess.d, sess.log = d, lg
	sess.resident.Store(true)
	s.residentCount.Add(1)
	s.rehydrations.Inc()
	s.rehydrateTime.Observe(time.Since(start).Seconds())
	s.logger.Info("session rehydrated", "session", sess.id, "seq", d.Seq(),
		"duration_ms", float64(time.Since(start).Microseconds())/1000)
	return d, nil
}

// enforceResidency passivates least-recently-touched resident sessions
// until the resident count is back under the limit, never touching keep
// (the session whose access triggered the enforcement). Best effort: a
// victim that turns busy between selection and passivation is skipped,
// leaving the set transiently over the limit until the next access.
func (s *server) enforceResidency(keep *session) {
	if s.cfg.dataDir == "" {
		return // memory-only sessions have no disk state to passivate to
	}
	limit := int64(s.maxResidentLimit())
	if s.residentCount.Load() <= limit {
		return
	}
	s.sessMu.Lock()
	victims := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess != keep && sess.resident.Load() {
			victims = append(victims, sess)
		}
	}
	s.sessMu.Unlock()
	sort.Slice(victims, func(i, j int) bool { return victims[i].last.Load() < victims[j].last.Load() })
	for _, victim := range victims {
		if s.residentCount.Load() <= limit {
			return
		}
		s.passivate(victim)
	}
}

// passivate evicts one session's in-memory state, keeping its files: the
// Dynamic is marked (in-flight batches stop at their next boundary having
// journaled nothing new) and dropped, and the WAL closes. Returns false
// when the session is busy, already passivated, or dropped.
func (s *server) passivate(sess *session) bool {
	sess.mu.Lock()
	if sess.dropped || !sess.resident.Load() || sess.inflight.Load() > 0 {
		sess.mu.Unlock()
		return false
	}
	// Passivate blocks until any in-progress apply releases the session
	// lock, so the Dynamic is quiescent when dropped.
	sess.d.Passivate()
	lg := sess.log
	sess.d, sess.log = nil, nil
	sess.resident.Store(false)
	sess.mu.Unlock()
	lg.Close()
	s.residentCount.Add(-1)
	s.passivations.Inc()
	s.logger.Info("session passivated", "session", sess.id)
	return true
}

// failAcquire maps a rehydration failure onto the API: a session deleted
// mid-request is gone (410), anything else is a server-side recovery
// problem (500) with the files left intact for sessionctl.
func (s *server) failAcquire(w http.ResponseWriter, err error) {
	if errors.Is(err, distec.ErrSessionClosed) {
		s.closedRejects.Inc()
		s.fail(w, http.StatusGone, err)
		return
	}
	s.fail(w, http.StatusInternalServerError, err)
}
