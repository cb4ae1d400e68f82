package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"time"

	"github.com/distec/distec/internal/persist"
	"github.com/distec/distec/internal/sessions"
)

// WAL streaming replication over HTTP: a leader exposes every session's
// durable state (snapshot + records, the same bytes recovery reads) over
// /v1/replicate, and a warm standby started with -follow tails it into
// its own data dir through sessions.Follower, with httpSource as its view
// of the leader. On promotion (explicit POST /v1/promote, or automatic
// after the leader has been unreachable for -promote-after) the standby
// recovers the replicated state exactly as a reboot would and starts
// serving.

// replLongPoll is how long GET /v1/replicate/{id}?from= holds a caught-up
// request open waiting for the session's head to advance. Passivated
// sessions have no live log to signal through, so their watchers wait the
// whole window flat — at worst one window of extra lag if the session
// rehydrates mid-wait.
const replLongPoll = 5 * time.Second

// standby wraps a session-traffic route: while the daemon is a warm
// standby it answers 503, because the replicated sessions are not
// serveable until promotion and accepting a write would fork history from
// the leader. It counts the request either way.
func (s *server) standby(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if s.repl.Following() {
			s.fail(w, http.StatusServiceUnavailable,
				errors.New("following a leader; not serving session traffic until promoted (POST /v1/promote)"))
			return
		}
		h(w, r)
	}
}

// replicateListResponse is the body of GET /v1/replicate.
type replicateListResponse struct {
	Sessions []string `json:"sessions"`
}

// handleReplicateList enumerates replicable sessions straight from the
// data dir (sessions.List, the rule recovery uses) — registry-independent,
// so retired sessions still replicate and a promoted-or-chained follower
// can serve the same endpoint.
func (s *server) handleReplicateList(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	ids, err := sessions.List(s.cfg.dataDir)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	s.respond(w, http.StatusOK, replicateListResponse{Sessions: ids})
}

// handleReplicateSession streams one session's durable state from the
// follower's position (Registry.Stream): without ?from, the bootstrap
// case, a full snapshot plus every replayable record; with it, the records
// past that sequence (or a snapshot when compaction moved past the
// follower). A caught-up request long-polls for up to replLongPoll (an
// empty stream is a valid answer: poll again).
func (s *server) handleReplicateSession(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	fromStr := r.URL.Query().Get("from")
	var from uint64
	if fromStr != "" {
		v, err := strconv.ParseUint(fromStr, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad from: %w", err))
			return
		}
		from = v
	}
	ctx, cancel := context.WithTimeout(r.Context(), replLongPoll)
	defer cancel()
	id := r.PathValue("id")
	snap, recs, err := s.sessions.Stream(ctx, id, from, fromStr == "")
	switch {
	case errors.Is(err, fs.ErrInvalid):
		s.fail(w, http.StatusBadRequest, errors.New("bad session id"))
		return
	case errors.Is(err, fs.ErrNotExist):
		s.fail(w, http.StatusNotFound, errors.New("no such session"))
		return
	case err != nil:
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	s.respond2(w)
	if err := persist.WriteStream(w, snap, recs); err != nil {
		// Mid-stream write failure: the follower sees a truncated stream,
		// discards it, and retries. Nothing to salvage here.
		s.logger.Warn("replication stream aborted", "session", id, "err", err)
	}
}

// respond2 extends the write deadline like respond, for a raw-body reply.
func (s *server) respond2(w http.ResponseWriter) {
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(responseWriteBudget))
}

// replicationStatus is the body of GET /v1/replication/status.
type replicationStatus struct {
	Role   string `json:"role"`
	Leader string `json:"leader,omitempty"`
	// Sessions maps session IDs to the follower's locally durable head —
	// the watermark a failover test (or operator) compares against the
	// leader's acknowledged sequence numbers.
	Sessions map[string]uint64 `json:"sessions,omitempty"`
	// LagSeconds is the time since the last completed session-list sync
	// against the leader.
	LagSeconds    float64 `json:"lag_seconds"`
	LeaderHealthy bool    `json:"leader_healthy"`
}

func (s *server) handleReplicationStatus(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if !s.repl.Following() {
		s.respond(w, http.StatusOK, replicationStatus{Role: "leader", LeaderHealthy: true})
		return
	}
	heads, lag, healthy := s.repl.Status()
	s.respond(w, http.StatusOK, replicationStatus{
		Role: "follower", Leader: s.cfg.follow, Sessions: heads,
		LagSeconds: lag.Seconds(), LeaderHealthy: healthy,
	})
}

// handlePromote flips a follower to serving: replication stops, the
// replicated state is recovered exactly as a reboot would, and the
// response arrives once the daemon is the leader. Idempotent; a no-op on
// a daemon that already leads.
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	switch err := s.repl.Promote(r.Context()); {
	case err == nil:
		s.respond(w, http.StatusOK, map[string]string{"role": "leader"})
	case r.Context().Err() != nil:
		s.respond(w, http.StatusAccepted, map[string]string{"role": "promoting"})
	default:
		s.fail(w, http.StatusServiceUnavailable, err)
	}
}

// httpSource is the follower's sessions.Source over the leader's
// replication endpoints, bound to each call's ctx so shutdown and
// promotion never wait out a leader-side long poll.
type httpSource struct {
	leader string
	client *http.Client
}

func (h httpSource) List(ctx context.Context) ([]string, error) {
	var list replicateListResponse
	err := h.get(ctx, "/v1/replicate", func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&list)
	})
	return list.Sessions, err
}

func (h httpSource) Fetch(ctx context.Context, id string, from uint64, bootstrap bool) (snap *persist.Snapshot, recs []persist.Record, err error) {
	path := "/v1/replicate/" + id
	if !bootstrap {
		path += "?from=" + strconv.FormatUint(from, 10)
	}
	err = h.get(ctx, path, func(body io.Reader) (err error) {
		snap, recs, err = persist.ReadStream(body)
		return err
	})
	return snap, recs, err
}

// get issues one GET against the leader and hands a 200 body to read. The
// body is drained either way, so the connection can be reused.
func (h httpSource) get(ctx context.Context, path string, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.leader+path, nil)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = read(resp.Body)
	} else {
		err = fmt.Errorf("leader replied %d to %s", resp.StatusCode, path)
	}
	io.Copy(io.Discard, resp.Body)
	return err
}
