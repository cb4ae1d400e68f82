package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/distec/distec/internal/metrics"
	"github.com/distec/distec/internal/persist"
	"github.com/distec/distec/internal/sessions"
)

// WAL streaming replication: a leader exposes every session's durable
// state (snapshot + records, the same bytes recovery reads) over
// /v1/replicate, and a warm standby started with -follow tails it into
// its own data dir — bootstrapping each session from a full snapshot,
// then long-polling for records as they are acknowledged. On promotion
// (explicit POST /v1/promote, or automatic after the leader has been
// unreachable for -promote-after) the standby recovers the replicated
// state exactly as a reboot would and starts serving.

// replLongPoll is how long GET /v1/replicate/{id}?from= holds a caught-up
// request open waiting for the session's head to advance. Passivated
// sessions have no live log to signal through, so their watchers wait the
// whole window flat — at worst one window of extra lag if the session
// rehydrates mid-wait.
const replLongPoll = 5 * time.Second

// rejectFollowing answers 503 while the daemon is a warm standby: the
// replicated sessions are not serveable until promotion, and accepting a
// write here would fork history from the leader.
func (s *server) rejectFollowing(w http.ResponseWriter) bool {
	if !s.following.Load() {
		return false
	}
	s.fail(w, http.StatusServiceUnavailable,
		errors.New("following a leader; not serving session traffic until promoted (POST /v1/promote)"))
	return true
}

// validSessionID rejects path-traversal-shaped ids before they reach
// filepath.Join (real ids are 16 hex chars).
func validSessionID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
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
// follower's position: without ?from, the bootstrap case, a full snapshot
// plus every replayable record; with it, the records past that sequence
// (or a snapshot when compaction moved past the follower). A caught-up
// request long-polls until the session's head advances or the window
// closes (an empty stream is a valid answer: poll again).
func (s *server) handleReplicateSession(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	id := r.PathValue("id")
	if !validSessionID(id) {
		s.fail(w, http.StatusBadRequest, errors.New("bad session id"))
		return
	}
	dir := filepath.Join(s.cfg.dataDir, id)
	fromStr := r.URL.Query().Get("from")
	mustSnap := fromStr == ""
	var from uint64
	if !mustSnap {
		v, err := strconv.ParseUint(fromStr, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad from: %w", err))
			return
		}
		from = v
	}
	snap, recs, err := persist.ReadState(dir, from, mustSnap)
	if err == nil && !mustSnap && snap == nil && len(recs) == 0 {
		// Caught up: park until something is acknowledged. The scan races
		// benignly with concurrent appends and compactions — a scan error
		// below is transient, and the follower simply retries.
		ctx, cancel := context.WithTimeout(r.Context(), replLongPoll)
		s.sessions.WaitHead(ctx, id, from)
		cancel()
		snap, recs, err = persist.ReadState(dir, from, false)
	}
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.fail(w, http.StatusNotFound, errors.New("no such session"))
		} else {
			s.fail(w, http.StatusInternalServerError, err)
		}
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
	if f := s.repl; f != nil && s.following.Load() {
		s.respond(w, http.StatusOK, f.status())
		return
	}
	s.respond(w, http.StatusOK, replicationStatus{Role: "leader", LeaderHealthy: true})
}

// handlePromote flips a follower to serving: replication stops, the
// replicated state is recovered exactly as a reboot would, and the
// response arrives once the daemon is the leader. Idempotent; a no-op on
// a daemon that already leads.
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	f := s.repl
	if f == nil || !s.following.Load() {
		s.respond(w, http.StatusOK, map[string]string{"role": "leader"})
		return
	}
	f.requestPromote()
	select {
	case <-f.promoted:
		s.respond(w, http.StatusOK, map[string]string{"role": "leader"})
	case <-f.done:
		s.fail(w, http.StatusServiceUnavailable, errors.New("follower shut down before promotion"))
	case <-r.Context().Done():
		s.respond(w, http.StatusAccepted, map[string]string{"role": "promoting"})
	}
}

// follower is the warm-standby replication loop: a list poller that keeps
// one tailer goroutine per leader session, each long-polling the leader
// and appending the received records to a local log. The maps are guarded
// by mu; each session's log and files are touched only by its own tailer
// (or by the list poller strictly after that tailer exits), so file
// operations stay outside the lock.
type follower struct {
	s            *server
	leader       string
	poll         time.Duration
	promoteAfter time.Duration
	client       *http.Client

	polls *metrics.Counter
	recs  *metrics.Counter
	snaps *metrics.Counter

	mu        sync.Mutex
	logs      map[string]*persist.Log
	pos       map[string]uint64
	tailers   map[string]chan struct{}
	lastSync  time.Time
	firstFail time.Time

	// ctx cancels in-flight HTTP polls the instant the follower stops or
	// promotes, so shutdown never waits out a leader-side long poll. The
	// field is the follower's own lifecycle root, created and cancelled by
	// this struct — not a stored caller context, so its deadline cannot go
	// stale.
	//distec:nolint ctxflow
	ctx    context.Context
	cancel context.CancelFunc

	wg          sync.WaitGroup
	stopOnce    sync.Once
	stop        chan struct{}
	done        chan struct{}
	promoteOnce sync.Once
	promoteC    chan struct{}
	promoted    chan struct{}
}

func newFollower(s *server) *follower {
	poll := s.cfg.followPoll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	f := &follower{
		s:            s,
		leader:       strings.TrimRight(s.cfg.follow, "/"),
		poll:         poll,
		promoteAfter: s.cfg.promoteAfter,
		client:       &http.Client{Timeout: replLongPoll + 30*time.Second},
		logs:         make(map[string]*persist.Log),
		pos:          make(map[string]uint64),
		tailers:      make(map[string]chan struct{}),
		lastSync:     time.Now(),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		promoteC:     make(chan struct{}),
		promoted:     make(chan struct{}),
	}
	// The follower is a daemon-lifetime component: its root deliberately
	// outlives any request, and Stop/promotion cancel it.
	//distec:nolint ctxflow
	f.ctx, f.cancel = context.WithCancel(context.Background())
	reg := s.reg
	f.polls = reg.Counter("distec_replication_polls_total", "Replication fetches issued against the leader (session lists and per-session tails).")
	f.recs = reg.Counter("distec_replication_records_total", "WAL records received from the leader and made locally durable.")
	f.snaps = reg.Counter("distec_replication_snapshots_total", "Full snapshots received from the leader (bootstraps and post-compaction resyncs).")
	reg.GaugeFunc("distec_replication_lag_seconds", "Seconds since the follower last completed a session-list sync against the leader (0 when leading).", func() float64 {
		if !s.following.Load() {
			return 0
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		return time.Since(f.lastSync).Seconds()
	})
	return f
}

// run is the follower's main loop: poll the leader's session list on a
// ticker, reconcile the tailer set, and watch for the promotion triggers
// (explicit request, or leader unreachable past the threshold).
func (f *follower) run() {
	defer close(f.done)
	t := time.NewTicker(f.poll)
	defer t.Stop()
	for {
		f.syncList()
		if f.shouldPromote() {
			f.promote()
			return
		}
		select {
		case <-f.stop:
			f.wg.Wait()
			f.closeLogs()
			return
		case <-f.promoteC:
			f.promote()
			return
		case <-t.C:
		}
	}
}

// stopAndWait shuts the replication loop down without promoting; the
// replicated files stay for the next boot.
func (f *follower) stopAndWait() {
	f.stopOnce.Do(func() { close(f.stop); f.cancel() })
	<-f.done
}

// requestPromote asks the run loop to promote; wait on f.promoted.
func (f *follower) requestPromote() {
	f.promoteOnce.Do(func() { close(f.promoteC) })
}

// get issues one poll against the leader, bound to the follower's
// lifetime.
func (f *follower) get(url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return f.client.Do(req)
}

// syncList fetches the leader's session list, starts tailers for new
// sessions, and stops (and locally deletes) sessions the leader dropped.
// Leader-unreachable streaks are tracked here for auto-promotion.
func (f *follower) syncList() {
	f.polls.Inc()
	resp, err := f.get(f.leader + "/v1/replicate")
	now := time.Now()
	var list replicateListResponse
	if err == nil {
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&list)
		} else {
			err = fmt.Errorf("leader replied %d to list", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		f.mu.Lock()
		if f.firstFail.IsZero() {
			f.firstFail = now
		}
		f.mu.Unlock()
		return
	}
	f.mu.Lock()
	f.firstFail = time.Time{}
	f.lastSync = now
	want := make(map[string]bool, len(list.Sessions))
	for _, id := range list.Sessions {
		if !validSessionID(id) {
			continue
		}
		want[id] = true
		if _, ok := f.tailers[id]; !ok {
			stop := make(chan struct{})
			f.tailers[id] = stop
			f.wg.Add(1)
			go f.tail(id, stop)
		}
	}
	for id, stop := range f.tailers {
		if !want[id] {
			// Deleted on the leader: the tailer removes the local copy on
			// its way out (it owns the session's files).
			close(stop)
			delete(f.tailers, id)
		}
	}
	f.mu.Unlock()
}

// tail replicates one session until stopped: long-poll the leader from
// the local position, append what arrives, back off on errors. A close of
// stop means the leader deleted the session (drop the local copy); a
// close of f.stop means shutdown or promotion (keep it).
func (f *follower) tail(id string, stop chan struct{}) {
	defer f.wg.Done()
	for {
		select {
		case <-stop:
			f.dropLocal(id)
			return
		case <-f.stop:
			return
		default:
		}
		n, err := f.syncSession(id)
		if err != nil {
			// Transient by construction (leader restarting, a scan racing a
			// compaction, divergent local state already dropped): wait one
			// interval and re-poll; a dropped position re-bootstraps.
			f.sleep(stop, f.poll)
			continue
		}
		if n == 0 {
			// Caught up. The leader's long poll paces us, but a fast empty
			// answer (e.g. a passivated session) still idles briefly so an
			// idle session never turns into a tight request loop.
			f.sleep(stop, f.poll/4+time.Millisecond)
		}
	}
}

func (f *follower) sleep(stop chan struct{}, d time.Duration) {
	select {
	case <-stop:
	case <-f.stop:
	case <-time.After(d):
	}
}

// syncSession performs one replication fetch for id and applies the
// result, returning how many records were applied.
func (f *follower) syncSession(id string) (int, error) {
	f.mu.Lock()
	pos, have := f.pos[id]
	f.mu.Unlock()
	url := f.leader + "/v1/replicate/" + id
	if have {
		url += "?from=" + strconv.FormatUint(pos, 10)
	}
	f.polls.Inc()
	resp, err := f.get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return 0, nil // deleted on the leader; the list sync prunes us
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("leader replied %d", resp.StatusCode)
	}
	snap, recs, err := persist.ReadStream(resp.Body)
	if err != nil {
		return 0, err
	}
	n, err := f.apply(id, snap, recs)
	if err != nil {
		// The local copy can no longer chain from the leader's stream.
		// Drop it; the next poll bootstraps from a fresh snapshot.
		f.dropLocal(id)
		return 0, err
	}
	return n, nil
}

// apply makes one replication response locally durable: a snapshot
// restarts the session's local log from scratch, records append beyond
// the current position (duplicates from scan races are skipped, gaps are
// an error that forces a re-bootstrap).
func (f *follower) apply(id string, snap *persist.Snapshot, recs []persist.Record) (int, error) {
	dir := filepath.Join(f.s.cfg.dataDir, id)
	f.mu.Lock()
	lg := f.logs[id]
	pos := f.pos[id]
	f.mu.Unlock()
	if snap != nil {
		f.mu.Lock()
		delete(f.logs, id)
		delete(f.pos, id)
		f.mu.Unlock()
		if lg != nil {
			lg.Close()
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		var err error
		lg, err = persist.CreateLog(dir, func(w io.Writer) error {
			return persist.WriteSnapshot(w, snap)
		}, f.s.persist)
		if err != nil {
			return 0, err
		}
		// The local log's head starts where the snapshot does, so appends
		// chain from the leader's sequence numbers, not from zero.
		lg.SetHead(snap.Seq)
		pos = snap.Seq
		f.snaps.Inc()
	}
	if lg == nil {
		return 0, fmt.Errorf("no local log for %s and no snapshot in stream", id)
	}
	applied := 0
	var applyErr error
	for _, rec := range recs {
		if rec.Seq <= pos {
			continue
		}
		if rec.Seq != pos+1 {
			applyErr = fmt.Errorf("replication gap: local head %d, next record %d", pos, rec.Seq)
			break
		}
		if err := lg.Append(rec); err != nil {
			applyErr = err
			break
		}
		pos = rec.Seq
		applied++
	}
	f.mu.Lock()
	f.logs[id] = lg
	f.pos[id] = pos
	f.mu.Unlock()
	if applied > 0 {
		f.recs.Add(uint64(applied))
	}
	return applied, applyErr
}

// dropLocal discards one session's local copy (log, position, files).
// Called only from the session's own tailer, which owns its files.
func (f *follower) dropLocal(id string) {
	f.mu.Lock()
	lg := f.logs[id]
	delete(f.logs, id)
	delete(f.pos, id)
	f.mu.Unlock()
	if lg != nil {
		lg.Close()
	}
	os.RemoveAll(filepath.Join(f.s.cfg.dataDir, id))
}

func (f *follower) closeLogs() {
	f.mu.Lock()
	logs := f.logs
	f.logs = make(map[string]*persist.Log)
	f.mu.Unlock()
	for _, lg := range logs {
		lg.Close()
	}
}

// shouldPromote reports whether the leader has been unreachable past the
// auto-promotion threshold.
func (f *follower) shouldPromote() bool {
	if f.promoteAfter <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.firstFail.IsZero() && time.Since(f.firstFail) >= f.promoteAfter
}

// promote stops replication and brings the replicated state live: every
// tailer drains, logs close, and recovery re-registers the sessions
// exactly as a reboot over the same data dir would — verified colorings,
// residency-bounded, original IDs. Only then does session traffic open.
func (f *follower) promote() {
	f.s.logger.Info("promoting: recovering replicated sessions", "leader", f.leader)
	f.stopOnce.Do(func() { close(f.stop); f.cancel() })
	f.wg.Wait()
	f.closeLogs()
	f.s.sessions.Recover()
	f.s.following.Store(false)
	close(f.promoted)
	c := f.s.sessions.Counts()
	f.s.logger.Info("promoted to leader", "sessions", c.Sessions,
		"recovered", c.Recovered, "failed", c.RecoveryFailures)
}

// status snapshots the follower's replication positions for the status
// endpoint.
func (f *follower) status() replicationStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	sessions := make(map[string]uint64, len(f.pos))
	for id, p := range f.pos {
		sessions[id] = p
	}
	return replicationStatus{
		Role:          "follower",
		Leader:        f.leader,
		Sessions:      sessions,
		LagSeconds:    time.Since(f.lastSync).Seconds(),
		LeaderHealthy: f.firstFail.IsZero(),
	}
}
