package sessions

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/metrics"
	"github.com/distec/distec/internal/persist"
)

// ErrFull is Add's error when the registry holds MaxSessions sessions.
var ErrFull = errors.New("sessions: session limit reached")

// ErrRehydrate marks a passivated session that could not be restored from
// its files (via errors.Is). The files are left in place for sessionctl.
var ErrRehydrate = errors.New("sessions: rehydration failed")

// Config is a Registry's policy; each setting comes from one of
// edgecolord's flags.
type Config struct {
	// DataDir (-data-dir) keeps each session durable in DataDir/<id>.
	// Empty keeps sessions memory-only; those never passivate.
	DataDir string
	Persist persist.Options // -fsync, -wal-compact-bytes, -diff-compact
	TTL     time.Duration   // -session-ttl: evict sessions idle this long; 0 never does
	// MaxSessions (-max-sessions) bounds the registry; MaxResident
	// (-max-resident) bounds the durable sessions held in memory.
	MaxSessions, MaxResident int
	Pool                     *distec.Pool      // runs restored sessions' repairs
	Metrics                  *metrics.Registry // receives the session families
	Logger                   *slog.Logger      // receives lifecycle records
}

// Registry is the daemon's set of live sessions.
//
// Passivation keeps the resident set bounded while the registry holds
// thousands of durable sessions: the least-recently-used sessions beyond
// MaxResident drop their in-memory state (the truth stays on disk — every
// acknowledged batch is journaled before it is acknowledged), and the next
// Acquire rehydrates them through the Open pipeline recovery uses. Apply
// applies a batch that races a passivation exactly once.
type Registry struct {
	cfg Config

	// mu guards sessions. Lookups copy a *Session out and release mu
	// before taking any Session.mu, so mu never nests around anything.
	mu       sync.Mutex
	sessions map[string]*Session

	// resident counts the sessions holding in-memory state.
	resident atomic.Int64

	creates, deletes, evictions *metrics.Counter
	passivations, rehydrations  *metrics.Counter
	// recovered and recoveryFailures count recovery outcomes. Promotion
	// recovers on the follower's goroutine while scrapes read them, so
	// they are atomic counters, never plain fields.
	recovered, recoveryFailures *metrics.Counter
	recoveryTime, rehydrateTime *metrics.Histogram

	stop      chan struct{}
	closeOnce sync.Once
	sweeper   sync.WaitGroup
}

// Session is one registry entry: the live coloring, its durability log
// (nil without a data dir, and while passivated), and the idle clock.
type Session struct {
	id string
	// mu serializes residency transitions (passivate, rehydrate, drop); d
	// and log are only replaced under it. A caller that already holds a d
	// may keep using it across a passivation — a passivated Dynamic stays
	// readable, and writes fail with ErrSessionPassivated.
	mu  sync.Mutex
	d   *distec.Dynamic
	log *persist.Log
	// dropped marks a deleted, evicted or retired session so a racing
	// caller cannot rehydrate it back to life from files being removed.
	dropped bool
	// resident mirrors d != nil, readable without mu for victim selection.
	resident atomic.Bool
	// last is the UnixNano of the last access; inflight counts batches
	// executing, so the idle sweep never evicts a session mid-batch just
	// because the batch outlived the TTL, and passivation skips it.
	last     atomic.Int64
	inflight atomic.Int32
}

func (s *Session) touch() { s.last.Store(time.Now().UnixNano()) }

// New builds an empty registry, registers its metric families, and starts
// the idle sweep when cfg.TTL is set. Call Recover to load the data dir.
func New(cfg Config) *Registry {
	r := &Registry{cfg: cfg, sessions: make(map[string]*Session), stop: make(chan struct{})}
	reg := cfg.Metrics
	r.creates = reg.Counter("distec_session_creates_total", "Dynamic sessions created.")
	r.deletes = reg.Counter("distec_session_deletes_total", "Dynamic sessions deleted by clients.")
	r.evictions = reg.Counter("distec_session_evictions_total", "Idle dynamic sessions reclaimed by the TTL sweeper.")
	r.recoveryTime = reg.Histogram("distec_session_recovery_seconds", "Boot-time per-session recovery duration (open, replay, verify), successes only.", metrics.LatencyBuckets)
	r.rehydrateTime = reg.Histogram("distec_session_rehydration_seconds", "Rehydration latency (open, replay, verify) when a passivated session is touched.", metrics.LatencyBuckets)
	r.passivations = reg.Counter("distec_sessions_passivated_total", "Resident sessions evicted to disk by the residency limit.")
	r.rehydrations = reg.Counter("distec_session_rehydrations_total", "Passivated sessions rehydrated from disk on access.")
	r.recovered = reg.Counter("distec_session_recovered_total", "Sessions recovered at boot.")
	r.recoveryFailures = reg.Counter("distec_session_recovery_failures_total", "Sessions that failed boot recovery and were skipped.")
	reg.GaugeFunc("distec_sessions_resident", "Dynamic sessions resident in memory (each pins its graph and coloring).", func() float64 { return float64(r.resident.Load()) })
	reg.GaugeFunc("distec_sessions", "Live dynamic sessions.", func() float64 { return float64(r.count()) })
	if cfg.TTL > 0 {
		r.sweeper.Add(1)
		go r.sweepLoop()
	}
	return r
}

// Counts is a point-in-time read of the registry for /v1/stats.
type Counts struct {
	Sessions, Resident          int
	Recovered, RecoveryFailures int
	Creates, Deletes, Evictions uint64
}

// Counts reads the registry's gauges and counters. The counters are
// independent atomics, so deletes and evictions are read (in field order)
// before the creates they are bounded by: a create landing between the
// reads only inflates creates, never the removals.
func (r *Registry) Counts() Counts {
	return Counts{
		Deletes:          r.deletes.Load(),
		Evictions:        r.evictions.Load(),
		Creates:          r.creates.Load(),
		Sessions:         r.count(),
		Resident:         int(r.resident.Load()),
		Recovered:        int(r.recovered.Load()),
		RecoveryFailures: int(r.recoveryFailures.Load()),
	}
}

func (r *Registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

func (r *Registry) dir(id string) string { return filepath.Join(r.cfg.DataDir, id) }

// Full reports whether the registry holds MaxSessions sessions even after
// one idle sweep: abandoned sessions must never turn creates into errors
// until the sweeper's next tick.
func (r *Registry) Full() bool {
	return r.count() >= r.cfg.MaxSessions && r.sweep() == 0
}

// Add registers d as a new session under a fresh unguessable ID. With a
// data dir the session is durable from birth: its initial snapshot is on
// disk before Add returns the ID, so a crash at any later point recovers
// it. The newcomer may push the resident set past MaxResident; the
// coldest other sessions passivate to make room. A registry that filled
// up since Full answers ErrFull, with d closed and its files removed.
func (r *Registry) Add(d *distec.Dynamic) (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("session id: %w", err)
	}
	id := hex.EncodeToString(b[:])
	s := &Session{id: id, d: d}
	if r.cfg.DataDir != "" {
		lg, err := Create(r.dir(id), d, r.cfg.Persist)
		if err != nil {
			return "", fmt.Errorf("persist session: %w", err)
		}
		s.log = lg
	}
	r.admit(s)
	r.mu.Lock()
	if len(r.sessions) >= r.cfg.MaxSessions {
		r.mu.Unlock()
		r.drop(s)
		return "", ErrFull
	}
	r.sessions[id] = s
	r.mu.Unlock()
	r.creates.Inc()
	r.enforceResidency(s)
	return id, nil
}

// admit marks a loaded session resident and restarts its clock.
func (r *Registry) admit(s *Session) {
	s.resident.Store(true)
	r.resident.Add(1)
	s.touch()
}

// Get looks a session up by ID.
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	return s, ok
}

// Acquire returns the session's live Dynamic, rehydrating it from disk
// first when passivated, and restarts its idle clock. ctx bounds the
// rehydration replay: it is the request's context, and a caller that gave
// up must not pin the session lock through a long replay. A session
// dropped since Get (deleted, evicted, retired) fails with
// distec.ErrSessionClosed; a failed rehydration with ErrRehydrate.
func (r *Registry) Acquire(ctx context.Context, s *Session) (*distec.Dynamic, error) {
	s.touch()
	s.mu.Lock()
	if s.dropped {
		s.mu.Unlock()
		return nil, distec.ErrSessionClosed
	}
	if s.resident.Load() {
		d := s.d
		s.mu.Unlock()
		return d, nil
	}
	// Rehydration I/O under s.mu is the design, not an accident: the
	// session must not serve (or passivate again) while half-restored, and
	// every waiter needs exactly this state before proceeding.
	//distec:nolint lockio
	d, err := r.rehydrateLocked(ctx, s)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// The rehydrated session may push the resident set past the limit;
	// make room by passivating the coldest others.
	r.enforceResidency(s)
	return d, nil
}

// rehydrateLocked rebuilds a passivated session through Open and
// reinstalls it as resident. Caller holds s.mu.
func (r *Registry) rehydrateLocked(ctx context.Context, s *Session) (*distec.Dynamic, error) {
	start := time.Now()
	d, lg, err := Open(ctx, r.dir(s.id), r.cfg.Pool, r.cfg.Persist)
	if err != nil {
		return nil, fmt.Errorf("%w: session %s: %w", ErrRehydrate, s.id, err)
	}
	s.d, s.log = d, lg
	r.admit(s)
	r.rehydrations.Inc()
	r.rehydrateTime.Observe(time.Since(start).Seconds())
	r.cfg.Logger.Info("session rehydrated", "session", s.id, "seq", d.Seq(),
		"duration_ms", float64(time.Since(start).Microseconds())/1000)
	return d, nil
}

// Apply runs one update batch on d, the session's Dynamic as the
// caller's Acquire returned it, and returns the Dynamic the batch ran on
// with its results. The running batch keeps the session busy, safe from
// the idle sweep and passivation; if it passivated since Acquire, the
// batch fails with distec.ErrSessionPassivated having journaled nothing,
// and Apply rehydrates and runs it once more — it applies exactly once.
//
// A distec.ErrJournal batch was applied in memory but not journaled, so a
// further acknowledged batch would journal with a sequence gap that makes
// the whole log unrecoverable. Apply retires such a session (unregistered
// and closed, files kept), and a restart recovers every durable batch.
func (r *Registry) Apply(ctx context.Context, s *Session, d *distec.Dynamic, updates []distec.Update) (*distec.Dynamic, []distec.UpdateResult, error) {
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.touch()
	}()
	results, err := d.ApplyBatch(ctx, updates)
	if errors.Is(err, distec.ErrSessionPassivated) {
		if d, err = r.Acquire(ctx, s); err != nil {
			return nil, nil, err
		}
		results, err = d.ApplyBatch(ctx, updates)
	}
	if errors.Is(err, distec.ErrJournal) {
		r.mu.Lock()
		delete(r.sessions, s.id)
		r.mu.Unlock()
		r.quiesce(s)
	}
	return d, results, err
}

// Delete unregisters a session, closes it (in-flight batches fail with
// distec.ErrSessionClosed instead of mutating a dropped session) and
// removes its files. It reports whether the session existed.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	s, ok := r.sessions[id]
	delete(r.sessions, id)
	r.mu.Unlock()
	if ok {
		r.drop(s)
		r.deletes.Inc()
	}
	return ok
}

// Stream reads session id's durable state for a follower at from — the
// leader's half of replication, behind its HTTP endpoint and in-process
// sources alike. With bootstrap, or when compaction moved past from, it is
// the effective snapshot plus every replayable record; otherwise the
// records past from. A caught-up follower gets the long poll: Stream waits
// until the head passes from (or the log closes or is poisoned, or ctx
// ends) and reads again, and an empty answer means poll again. The reads
// race benignly with appends and compactions; an error is transient, a
// missing session wraps fs.ErrNotExist, and an id that is not a session
// name wraps fs.ErrInvalid.
func (r *Registry) Stream(ctx context.Context, id string, from uint64, bootstrap bool) (*persist.Snapshot, []persist.Record, error) {
	if !validID(id) {
		return nil, nil, fmt.Errorf("sessions: bad session id %q: %w", id, fs.ErrInvalid)
	}
	snap, recs, err := persist.ReadState(r.dir(id), from, bootstrap)
	if err == nil && !bootstrap && snap == nil && len(recs) == 0 {
		r.waitHead(ctx, id, from)
		snap, recs, err = persist.ReadState(r.dir(id), from, false)
	}
	return snap, recs, err
}

// waitHead blocks until session id's log head passes from or ctx ends. A
// passivated or unknown session has no live log to signal through, so the
// wait runs until ctx ends.
func (r *Registry) waitHead(ctx context.Context, id string, from uint64) {
	if s, ok := r.Get(id); ok {
		s.mu.Lock()
		lg := s.log
		s.mu.Unlock()
		if lg != nil {
			lg.WaitHead(ctx, from)
			return
		}
	}
	<-ctx.Done()
}

// enforceResidency passivates least-recently-used resident sessions until
// the resident count is back under the limit, never touching keep (the
// session whose access triggered the enforcement). Best effort: a victim
// that turns busy between selection and passivation is skipped, leaving
// the set transiently over the limit until the next access.
func (r *Registry) enforceResidency(keep *Session) {
	if r.cfg.DataDir == "" {
		return // memory-only sessions have no disk state to passivate to
	}
	limit := int64(r.cfg.MaxResident)
	if r.resident.Load() <= limit {
		return
	}
	r.mu.Lock()
	victims := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		if s != keep && s.resident.Load() {
			victims = append(victims, s)
		}
	}
	r.mu.Unlock()
	sort.Slice(victims, func(i, j int) bool { return victims[i].last.Load() < victims[j].last.Load() })
	for _, victim := range victims {
		if r.resident.Load() <= limit {
			return
		}
		r.passivate(victim)
	}
}

// passivate drops one session's in-memory state, keeping its files: the
// Dynamic is marked (in-flight batches stop at their next boundary having
// journaled nothing new) and dropped, and the WAL closes. It skips a
// session that is busy, already passivated, or dropped.
func (r *Registry) passivate(s *Session) {
	s.mu.Lock()
	if s.dropped || !s.resident.Load() || s.inflight.Load() > 0 {
		s.mu.Unlock()
		return
	}
	// Passivate blocks until any in-progress apply releases the session
	// lock, so the Dynamic is quiescent when dropped.
	s.d.Passivate()
	lg := s.log
	s.d, s.log = nil, nil
	s.resident.Store(false)
	s.mu.Unlock()
	lg.Close()
	r.resident.Add(-1)
	r.passivations.Inc()
	r.cfg.Logger.Info("session passivated", "session", s.id)
}

// Recover registers every session under the data dir — at boot, and when
// a standby is promoted. The first MaxResident come back fully live
// (restore); the rest register passivated after a durability scan
// (checksums, torn tails, sequence chain — everything but the replay), so
// recovery cost and memory stay bounded however many sessions the dir
// holds, and each rehydrates (and verifies) on first access. A session
// that fails is logged, counted and skipped, never served wrong; its
// files stay for sessionctl.
func (r *Registry) Recover() {
	ids, err := List(r.cfg.DataDir)
	if err != nil {
		r.cfg.Logger.Error("session recovery: read data dir", "err", err)
		return
	}
	for _, id := range ids {
		start := time.Now()
		var s *Session
		if int(r.resident.Load()) < r.cfg.MaxResident {
			s, err = r.restore(id)
		} else if _, _, _, err = persist.ScanDir(r.dir(id)); err == nil {
			s = &Session{id: id}
			s.touch()
		}
		if err != nil {
			r.cfg.Logger.Error("session recovery failed", "session", id, "err", err)
			r.recoveryFailures.Inc()
			continue
		}
		r.recoveryTime.Observe(time.Since(start).Seconds())
		r.cfg.Logger.Info("session recovered", "session", id, "resident", s.resident.Load(),
			"duration_ms", float64(time.Since(start).Microseconds())/1000)
		r.mu.Lock()
		r.sessions[id] = s
		r.mu.Unlock()
		r.recovered.Inc()
	}
}

// restore loads one session for Recover and compacts a WAL that has
// outgrown the threshold. Any failure abandons it with the files
// untouched.
func (r *Registry) restore(id string) (*Session, error) {
	// Recovery runs before the daemon serves session traffic (at boot,
	// before the listener opens; at promotion, before the standby admits
	// requests): there is no request whose deadline could bound this
	// replay, and aborting half-way would only re-run the same work later.
	//distec:nolint ctxflow
	d, lg, err := Open(context.Background(), r.dir(id), r.cfg.Pool, r.cfg.Persist)
	if err != nil {
		return nil, err
	}
	// A WAL already past the threshold is compacted now (synchronously:
	// recovery is the cheap moment), so recovery cost stays bounded next
	// time. A compaction failure poisons the log — registering the session
	// anyway would fail every update with no trace of why — so it is a
	// recovery failure, with the files left for the operator.
	if lg.NeedsCompaction() {
		if err := Compact(d, lg); err != nil {
			lg.Close()
			return nil, fmt.Errorf("recovery compaction: %w", err)
		}
	}
	s := &Session{id: id, d: d, log: lg}
	r.admit(s)
	return s, nil
}

// sweepLoop periodically evicts idle sessions until Close; see sweep.
func (r *Registry) sweepLoop() {
	defer r.sweeper.Done()
	t := time.NewTicker(min(max(r.cfg.TTL/4, 10*time.Millisecond), time.Minute))
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.sweep()
		}
	}
}

// sweep evicts every session idle longer than the TTL, so abandoned
// sessions cannot occupy the registry forever: an evicted session is
// dropped exactly like a deleted one. It returns the number evicted.
func (r *Registry) sweep() int {
	if r.cfg.TTL <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-r.cfg.TTL).UnixNano()
	var evicted []*Session
	r.mu.Lock()
	for id, s := range r.sessions {
		// A session with a batch executing is busy, not abandoned, however
		// long the batch runs; its clock restarts when the batch ends.
		if s.last.Load() < cutoff && s.inflight.Load() == 0 {
			delete(r.sessions, id)
			evicted = append(evicted, s)
		}
	}
	r.mu.Unlock()
	for _, s := range evicted {
		r.drop(s)
		r.evictions.Inc()
	}
	return len(evicted)
}

// quiesce closes one already-unregistered session, keeping its files:
// in-flight batches fail with distec.ErrSessionClosed, the WAL closes
// cleanly, and a racing caller can no longer rehydrate it.
func (r *Registry) quiesce(s *Session) {
	s.mu.Lock()
	s.dropped = true
	d, lg := s.d, s.log
	s.d, s.log = nil, nil
	wasResident := s.resident.Swap(false)
	s.mu.Unlock()
	if d != nil {
		d.Close()
	}
	if lg != nil {
		lg.Close()
	}
	if wasResident {
		r.resident.Add(-1)
	}
}

// drop quiesces an already-unregistered session and removes its files —
// passivated sessions too: there is nothing in memory to close, but the
// files still go.
func (r *Registry) drop(s *Session) {
	r.quiesce(s)
	if r.cfg.DataDir != "" {
		os.RemoveAll(r.dir(s.id))
	}
}

// Close stops the idle sweep, waiting for it to exit, and quiesces every
// session — in-flight compactions finish and the WAL files close —
// keeping the files for the next boot. Idempotent.
func (r *Registry) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
	r.sweeper.Wait()
	r.mu.Lock()
	all := r.sessions
	r.sessions = make(map[string]*Session)
	r.mu.Unlock()
	for _, s := range all {
		r.quiesce(s)
	}
}
