package sessions

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/distec/distec/internal/metrics"
	"github.com/distec/distec/internal/persist"
)

// WAL streaming replication, follower side. A warm standby tails every
// session of a leader into its own data dir: it bootstraps each session
// from a full snapshot, then fetches records as the leader acknowledges
// them. On promotion it recovers the replicated state exactly as a reboot
// over the same data dir would. The leader's side is Registry.Stream.

// Source is a Follower's view of its leader: an HTTP client in the daemon,
// a leader Registry in tests.
type Source interface {
	// List returns the IDs of the leader's sessions.
	List(ctx context.Context) ([]string, error)
	// Fetch returns session id's stream for a follower at from, as
	// Registry.Stream does: with bootstrap, a snapshot and every record;
	// otherwise the records past from, or a snapshot and records when the
	// leader compacted past from. An empty answer means poll again.
	Fetch(ctx context.Context, id string, from uint64, bootstrap bool) (*persist.Snapshot, []persist.Record, error)
}

// errDropped cancels the tailer of a session the leader no longer lists;
// errPromoted cancels every call to the leader once promotion begins.
var (
	errDropped  = errors.New("sessions: session dropped by the leader")
	errPromoted = errors.New("sessions: follower promoting")
)

// validID reports whether id can name a session directory: real IDs are
// 16 hex characters, and anything path-shaped must never reach
// filepath.Join.
func validID(id string) bool {
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

// Follower is a warm standby's replication loop: a list poller that keeps
// one tailer goroutine per leader session. Each tailer fetches from its
// replica log's head and appends what arrives. A replica's log and files
// are touched only by its own tailer; mu guards the maps and the sync
// clock.
type Follower struct {
	src          Source
	reg          *Registry
	poll         time.Duration
	promoteAfter time.Duration

	polls, recs, snaps *metrics.Counter

	mu        sync.Mutex
	logs      map[string]*persist.Log
	tailers   map[string]context.CancelCauseFunc
	lastSync  time.Time
	firstFail time.Time

	following   atomic.Bool
	wg          sync.WaitGroup
	promoteOnce sync.Once
	promoteC    chan struct{}
	done        chan struct{}
}

// NewFollower builds a follower that replicates src into reg's data dir,
// with reg's persist options, and recovers into reg on promotion. poll is
// the session-list interval and leader health-check cadence (0: 500 ms).
// With promoteAfter > 0 it promotes itself once the leader has been
// unreachable that long. The replication metric families register on
// reg's metrics. Start it with Run.
func NewFollower(src Source, reg *Registry, poll, promoteAfter time.Duration) *Follower {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	f := &Follower{
		src: src, reg: reg, poll: poll, promoteAfter: promoteAfter,
		logs:     make(map[string]*persist.Log),
		tailers:  make(map[string]context.CancelCauseFunc),
		lastSync: time.Now(),
		promoteC: make(chan struct{}),
		done:     make(chan struct{}),
	}
	f.following.Store(true)
	m := reg.cfg.Metrics
	f.polls = m.Counter("distec_replication_polls_total", "Replication fetches issued against the leader (session lists and per-session tails).")
	f.recs = m.Counter("distec_replication_records_total", "WAL records received from the leader and made locally durable.")
	f.snaps = m.Counter("distec_replication_snapshots_total", "Full snapshots received from the leader (bootstraps and post-compaction resyncs).")
	m.GaugeFunc("distec_replication_lag_seconds", "Seconds since the follower last completed a session-list sync against the leader (0 when leading).", func() float64 {
		if !f.Following() {
			return 0
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		return time.Since(f.lastSync).Seconds()
	})
	return f
}

// Following reports whether f is still a standby; a nil Follower, the
// daemon that leads from boot, never is.
func (f *Follower) Following() bool { return f != nil && f.following.Load() }

// Done is closed when Run returns.
func (f *Follower) Done() <-chan struct{} { return f.done }

// Run replicates until ctx ends or f promotes. When ctx ends, the
// replicas stay on disk for the next boot. A promotion (Promote, or the
// leader unreachable past promoteAfter) recovers them into the registry
// and ends following. Every replica log is closed before either happens.
func (f *Follower) Run(ctx context.Context) {
	defer close(f.done)
	if !f.follow(ctx) {
		return
	}
	log := f.reg.cfg.Logger
	log.Info("promoting: recovering replicated sessions")
	f.reg.Recover()
	f.following.Store(false)
	c := f.reg.Counts()
	log.Info("promoted to leader", "sessions", c.Sessions, "recovered", c.Recovered, "failed", c.RecoveryFailures)
}

// Promote asks f to promote and waits until it leads (nil), ctx ends
// (ctx's error), or Run returned without promoting. It returns nil at once
// when f does not follow.
func (f *Follower) Promote(ctx context.Context) error {
	if !f.Following() {
		return nil
	}
	f.promoteOnce.Do(func() { close(f.promoteC) })
	select {
	case <-f.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if f.Following() {
		return errors.New("follower shut down before promotion")
	}
	return nil
}

// Status reports each replica's locally durable head, the time since the
// last completed session-list sync, and whether the leader answered the
// latest one.
func (f *Follower) Status() (heads map[string]uint64, lag time.Duration, leaderHealthy bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	heads = make(map[string]uint64, len(f.logs))
	for id, lg := range f.logs {
		heads[id] = lg.Head()
	}
	return heads, time.Since(f.lastSync), f.firstFail.IsZero()
}

// follow polls the session list every interval until ctx ends (false) or
// a promotion trigger fires (true), and returns once every tailer exited.
// A promotion request cancels every call to the leader in flight, so a
// hung leader cannot hold it up.
func (f *Follower) follow(ctx context.Context) bool {
	ctx, cancel := context.WithCancelCause(ctx)
	defer f.wg.Wait()
	defer cancel(nil)
	go func() {
		select {
		case <-f.promoteC:
			cancel(errPromoted)
		case <-ctx.Done():
		}
	}()
	t := time.NewTicker(f.poll)
	defer t.Stop()
	for {
		f.syncList(ctx)
		if f.unreachable() {
			return true
		}
		select {
		case <-ctx.Done():
			return errors.Is(context.Cause(ctx), errPromoted)
		case <-t.C:
		}
	}
}

// syncList fetches the leader's session list, starts a tailer for each new
// session, and stops the tailers of sessions the leader dropped. A failed
// fetch starts or extends the leader-unreachable streak.
func (f *Follower) syncList(ctx context.Context) {
	f.polls.Inc()
	ids, err := f.src.List(ctx)
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		if f.firstFail.IsZero() {
			f.firstFail = now
		}
		return
	}
	f.firstFail, f.lastSync = time.Time{}, now
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if !validID(id) {
			continue
		}
		want[id] = true
		if _, ok := f.tailers[id]; !ok {
			tctx, cancel := context.WithCancelCause(ctx)
			f.tailers[id] = cancel
			f.wg.Add(1)
			go f.tail(tctx, id)
		}
	}
	for id, cancel := range f.tailers {
		if !want[id] {
			cancel(errDropped)
			delete(f.tailers, id)
		}
	}
}

// unreachable reports whether the leader has been unreachable past the
// promotion threshold.
func (f *Follower) unreachable() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoteAfter > 0 && !f.firstFail.IsZero() && time.Since(f.firstFail) >= f.promoteAfter
}

// tail replicates session id until ctx ends. After an error it waits one
// poll interval; when caught up it idles briefly, so a session whose
// fetches answer at once (a passivated one) never turns into a tight
// loop. On its way out it closes the replica, and deletes it when the
// leader dropped the session.
func (f *Follower) tail(ctx context.Context, id string) {
	defer f.wg.Done()
	for ctx.Err() == nil {
		n, err := f.syncSession(ctx, id)
		if err != nil {
			sleep(ctx, f.poll)
		} else if n == 0 {
			sleep(ctx, f.poll/4+time.Millisecond)
		}
	}
	f.drop(id, errors.Is(context.Cause(ctx), errDropped))
}

func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// syncSession fetches session id from its replica's head and applies the
// stream, returning the number of records applied. A stream the replica
// cannot take drops the replica, so the next fetch bootstraps afresh.
func (f *Follower) syncSession(ctx context.Context, id string) (int, error) {
	f.mu.Lock()
	lg := f.logs[id]
	f.mu.Unlock()
	var from uint64
	if lg != nil {
		from = lg.Head()
	}
	f.polls.Inc()
	snap, recs, err := f.src.Fetch(ctx, id, from, lg == nil)
	if err != nil {
		return 0, err
	}
	n, err := f.apply(id, lg, snap, recs)
	if err != nil {
		f.drop(id, true)
	}
	return n, err
}

// apply makes one stream durable in session id's replica lg (nil before
// the bootstrap): a snapshot replaces the replica, and records append past
// its head. Records at or below the head (a scan racing an append) are
// skipped; a gap is an error.
func (f *Follower) apply(id string, lg *persist.Log, snap *persist.Snapshot, recs []persist.Record) (int, error) {
	if snap != nil {
		f.drop(id, false)
		var err error
		lg, err = create(f.reg.dir(id), snap.Seq, func(w io.Writer) error { return persist.WriteSnapshot(w, snap) }, f.reg.cfg.Persist)
		if err != nil {
			return 0, err
		}
		f.mu.Lock()
		f.logs[id] = lg
		f.mu.Unlock()
		f.snaps.Inc()
	}
	if lg == nil {
		return 0, fmt.Errorf("sessions: no replica of %s and no snapshot in the stream", id)
	}
	n := 0
	for _, rec := range recs {
		head := lg.Head()
		if rec.Seq <= head {
			continue
		}
		if rec.Seq != head+1 {
			return n, fmt.Errorf("sessions: replication gap: replica head %d, next record %d", head, rec.Seq)
		}
		if err := lg.Append(rec); err != nil {
			return n, err
		}
		f.recs.Inc()
		n++
	}
	return n, nil
}

// drop closes session id's replica log, if any, and with files deletes
// the replica from disk. Only the session's own tailer calls it.
func (f *Follower) drop(id string, files bool) {
	f.mu.Lock()
	lg := f.logs[id]
	delete(f.logs, id)
	f.mu.Unlock()
	if lg != nil {
		lg.Close()
	}
	if files {
		os.RemoveAll(f.reg.dir(id))
	}
}
