package sessions

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/persist"
	"github.com/distec/distec/internal/persist/errfs"
)

// leaderSource is an in-process Source over a leader Registry: the
// Registry.Stream the daemon's replication endpoint serves, with a
// long-poll window of its own. A fault hook, consulted before every call,
// can fail the call (a flaky link) or block it until ctx ends (a hung
// leader). Of the fetches that reach the leader, inflight counts those
// still running and fetched those that returned.
type leaderSource struct {
	leader            *Registry
	window            time.Duration
	mu                sync.Mutex
	fault             func(ctx context.Context) error
	inflight, fetched atomic.Int64
}

func (s *leaderSource) setFault(fault func(ctx context.Context) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = fault
}

func (s *leaderSource) inject(ctx context.Context) error {
	s.mu.Lock()
	fault := s.fault
	s.mu.Unlock()
	if fault == nil {
		return nil
	}
	return fault(ctx)
}

func (s *leaderSource) List(ctx context.Context) ([]string, error) {
	if err := s.inject(ctx); err != nil {
		return nil, err
	}
	return List(s.leader.cfg.DataDir)
}

func (s *leaderSource) Fetch(ctx context.Context, id string, from uint64, bootstrap bool) (*persist.Snapshot, []persist.Record, error) {
	if err := s.inject(ctx); err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, s.window)
	defer cancel()
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.fetched.Add(1)
	}()
	return s.leader.Stream(ctx, id, from, bootstrap)
}

// stall is the hung leader: the call returns only when its ctx ends.
func stall(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// waitFor polls cond until it holds, and fails the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// startFollower runs a follower of src, polling every 5 ms, into a fresh
// registry whose logs use opts, and stops it at cleanup. The returned
// cancel stops it early.
func startFollower(t *testing.T, src Source, opts persist.Options, promoteAfter time.Duration) (*Follower, *Registry, context.CancelFunc) {
	t.Helper()
	r := newTestRegistry(t, Config{DataDir: t.TempDir(), Persist: opts})
	f := NewFollower(src, r, 5*time.Millisecond, promoteAfter)
	ctx, cancel := context.WithCancel(context.Background())
	go f.Run(ctx)
	t.Cleanup(func() {
		cancel()
		<-f.Done()
	})
	return f, r, cancel
}

// waitHeads waits until every replica in want exists and holds at least
// its sequence number.
func waitHeads(t *testing.T, f *Follower, want map[string]uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("the replicas reach %v", want), func() bool {
		heads, _, _ := f.Status()
		for id, seq := range want {
			if head, ok := heads[id]; !ok || head < seq {
				return false
			}
		}
		return true
	})
}

// history is a leader session's coloring after each acknowledged batch,
// indexed by sequence number, with the edges live after the last one.
type history struct {
	colors [][]int
	live   map[[2]int]bool
}

// newHistory starts the history of a fresh 8-cycle session.
func newHistory(d *distec.Dynamic) *history {
	h := &history{colors: [][]int{d.Colors()}, live: map[[2]int]bool{}}
	for i := 0; i < 8; i++ {
		h.live[[2]int{min(i, (i+1)%8), max(i, (i+1)%8)}] = true
	}
	return h
}

// churn applies one batch of size random edge toggles and records it if
// acknowledged; the error is the batch's.
func (h *history) churn(r *Registry, s *Session, rng *rand.Rand, size int) error {
	live := maps.Clone(h.live)
	batch := make([]distec.Update, 0, size)
	for len(batch) < size {
		u, v := rng.Intn(8), rng.Intn(8)
		if u == v {
			continue
		}
		key := [2]int{min(u, v), max(u, v)}
		op := distec.InsertEdge
		if live[key] {
			op = distec.DeleteEdge
		}
		live[key] = !live[key]
		batch = append(batch, distec.Update{Op: op, U: key[0], V: key[1]})
	}
	d, err := r.Acquire(context.Background(), s)
	if err != nil {
		return err
	}
	d, _, err = r.Apply(context.Background(), s, d, batch)
	if err == nil {
		h.colors, h.live = append(h.colors, d.Colors()), live
	}
	return err
}

// checkPromoted requires session id of the promoted registry r to verify
// and to equal the leader's coloring after one of its acknowledged
// batches, at least the first least of them; it returns that batch's
// sequence number.
func checkPromoted(t *testing.T, r *Registry, id string, h *history, least uint64) uint64 {
	t.Helper()
	s, ok := r.Get(id)
	if !ok {
		t.Fatalf("session %s not recovered by the promotion", id)
	}
	d, err := r.Acquire(context.Background(), s)
	if err != nil {
		t.Fatalf("session %s: %v", id, err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("session %s promoted unverified: %v", id, err)
	}
	seq := d.Seq()
	if seq >= uint64(len(h.colors)) || seq < least {
		t.Fatalf("session %s promoted at seq %d, want one of the acknowledged %d..%d", id, seq, least, len(h.colors)-1)
	}
	want, got := h.colors[seq], d.Colors()
	for e := range want {
		if want[e] != got[e] {
			t.Fatalf("session %s at seq %d: edge %d colored %d, the leader acknowledged %d", id, seq, e, got[e], want[e])
		}
	}
	return seq
}

// TestFollowerDefaultPoll pins the fallback for an unset poll interval
// (edgecolord's -follow-poll 0).
func TestFollowerDefaultPoll(t *testing.T) {
	r := newTestRegistry(t, Config{DataDir: t.TempDir()})
	if f := NewFollower(&leaderSource{}, r, 0, 0); f.poll != 500*time.Millisecond || !f.Following() {
		t.Fatalf("default poll = %v (following %v), want 500ms while following", f.poll, f.Following())
	}
	var leader *Follower
	if leader.Following() || leader.Promote(context.Background()) != nil {
		t.Fatal("a nil Follower must lead: not following, and Promote a no-op")
	}
}

// TestFollowerMirrorsAndPromotesInProcess replicates three sessions, cuts
// the link while the leader compacts past the replicas (so each resyncs
// from a snapshot), deletes one on the leader, then promotes: each
// surviving session serves exactly the leader's last coloring, and the
// deleted one is gone from the standby's disk.
func TestFollowerMirrorsAndPromotesInProcess(t *testing.T) {
	leader := newTestRegistry(t, Config{DataDir: t.TempDir(), Persist: persist.Options{CompactBytes: 256}})
	src := &leaderSource{leader: leader, window: 20 * time.Millisecond}
	f, standby, _ := startFollower(t, src, persist.Options{}, 0)
	rng := rand.New(rand.NewSource(1))
	ids := make([]string, 3)
	sess := make([]*Session, 3)
	hist := make([]*history, 3)
	want := map[string]uint64{}
	for i := range ids {
		ids[i], sess[i] = add(t, leader)
		d, err := leader.Acquire(context.Background(), sess[i])
		if err != nil {
			t.Fatal(err)
		}
		hist[i] = newHistory(d)
		want[ids[i]] = 0
	}
	waitHeads(t, f, want)
	src.setFault(func(context.Context) error { return errors.New("link down") })
	waitFor(t, "the fetches in flight drain", func() bool { return src.inflight.Load() == 0 })
	for i := range ids {
		for b := 0; b < 12; b++ {
			if err := hist[i].churn(leader, sess[i], rng, 3); err != nil {
				t.Fatal(err)
			}
		}
		want[ids[i]] = 12
	}
	src.setFault(nil)
	waitHeads(t, f, want)
	if f.snaps.Load() < 6 {
		t.Fatalf("snapshots received = %d: the compactions during the outage forced no resync", f.snaps.Load())
	}
	leader.Delete(ids[2])
	waitFor(t, "the standby drops the deleted session", func() bool { return !IsDir(standby.dir(ids[2])) })
	if err := f.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Following() || standby.Counts().Recovered != 2 {
		t.Fatalf("after Promote: following %v, counts %+v", f.Following(), standby.Counts())
	}
	for i := range ids[:2] {
		checkPromoted(t, standby, ids[i], hist[i], 12)
	}
}

// TestFollowerStalledLeader hangs every call to the leader after the
// bootstrap: a follower shutting down and one promoting must both return
// at once instead of waiting on the stalled fetch, and the promoted one
// serves what it replicated.
func TestFollowerStalledLeader(t *testing.T) {
	leader := newTestRegistry(t, Config{DataDir: t.TempDir()})
	id, s := add(t, leader)
	d := apply(t, leader, s, chord(0, 2))
	h := &history{colors: [][]int{nil, d.Colors()}}
	for _, promote := range []bool{false, true} {
		src := &leaderSource{leader: leader, window: time.Minute}
		f, standby, cancel := startFollower(t, src, persist.Options{}, 0)
		waitHeads(t, f, map[string]uint64{id: 1})
		stalled := make(chan struct{}, 1)
		src.setFault(func(ctx context.Context) error {
			select {
			case stalled <- struct{}{}:
			default:
			}
			return stall(ctx)
		})
		<-stalled
		ctx, stop := context.WithTimeout(context.Background(), 2*time.Second)
		if promote {
			if err := f.Promote(ctx); err != nil {
				t.Fatalf("promotion waited on a stalled leader: %v", err)
			}
			checkPromoted(t, standby, id, h, 1)
		} else {
			cancel()
			select {
			case <-f.Done():
			case <-ctx.Done():
				t.Fatal("shutdown waited on a stalled leader")
			}
			if !IsDir(standby.dir(id)) {
				t.Fatal("shutdown removed the replica")
			}
		}
		stop()
	}
}

// TestStreamWakesOnFailedCompaction parks a caught-up Registry.Stream and
// fails a background compaction of the session's log under it 50 ms
// later. The poisoned log will never advance, so the long poll must return
// then: not before, and not at its 2 s deadline.
func TestStreamWakesOnFailedCompaction(t *testing.T) {
	fsys := errfs.New()
	r := newTestRegistry(t, Config{DataDir: t.TempDir(), Persist: persist.Options{FS: fsys}})
	id, s := add(t, r)
	d := apply(t, r, s, chord(0, 2))
	var snap bytes.Buffer
	if err := d.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// The rotation writes the fresh WAL; the write after it, the
	// compaction's snapshot commit, fails in the background.
	writes, _, _ := fsys.Ops()
	fsys.FailWrite(writes+2, 0)
	lg := s.log
	compacted := make(chan error, 1)
	time.AfterFunc(50*time.Millisecond, func() { compacted <- lg.CompactAsync(snap.Bytes()) })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, recs, err := r.Stream(ctx, id, 1, false)
	waited := time.Since(start)
	if err := <-compacted; err != nil {
		t.Fatalf("rotation failed: %v", err)
	}
	if err != nil || len(recs) != 0 || fsys.Fired() == "" {
		t.Fatalf("Stream over the failed compaction: %d records, err %v, fault %q", len(recs), err, fsys.Fired())
	}
	if waited < 40*time.Millisecond || waited > time.Second {
		t.Fatalf("Stream parked on a log poisoned at 50 ms returned after %v", waited)
	}
}

// TestFollowerPoisonedLeaderLog poisons the leader's log while the
// follower's fetch is parked in the long poll: the fetch returns at once
// instead of sleeping out its 10 s window, and promotion recovers the
// durable prefix.
func TestFollowerPoisonedLeaderLog(t *testing.T) {
	fsys := errfs.New()
	leader := newTestRegistry(t, Config{DataDir: t.TempDir(), Persist: persist.Options{FS: fsys}})
	id, s := add(t, leader)
	d := apply(t, leader, s, chord(0, 2))
	h := &history{colors: [][]int{nil, d.Colors()}}
	src := &leaderSource{leader: leader, window: 10 * time.Second}
	f, standby, _ := startFollower(t, src, persist.Options{}, 0)
	waitHeads(t, f, map[string]uint64{id: 1})
	// Let the caught-up fetch park in the long poll. A poison that lands
	// before it parks is seen on entry, so the wait only gives the test
	// its teeth; it cannot fail it.
	time.Sleep(50 * time.Millisecond)
	var snap bytes.Buffer
	if err := d.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	writes, _, _ := fsys.Ops()
	fsys.FailWrite(writes+2, 0)
	parked := src.fetched.Load()
	start := time.Now()
	if err := s.log.CompactAsync(snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	for src.fetched.Load() == parked {
		if time.Since(start) > 2*time.Second {
			t.Fatal("the parked fetch slept on a poisoned leader log")
		}
		time.Sleep(time.Millisecond)
	}
	if err := f.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkPromoted(t, standby, id, h, 1)
}

// TestFollowerDiskFaultRebootstraps fails one write on the follower's
// disk mid-replication: the replica is dropped and bootstrapped again from
// a snapshot, and promotion recovers it verified at the leader's head.
func TestFollowerDiskFaultRebootstraps(t *testing.T) {
	leader := newTestRegistry(t, Config{DataDir: t.TempDir()})
	id, s := add(t, leader)
	d, err := leader.Acquire(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	h := newHistory(d)
	rng := rand.New(rand.NewSource(2))
	fsys := errfs.New()
	f, standby, _ := startFollower(t, &leaderSource{leader: leader, window: time.Second}, persist.Options{FS: fsys}, 0)
	waitHeads(t, f, map[string]uint64{id: 0})
	writes, _, _ := fsys.Ops()
	fsys.FailWrite(writes+1, 5) // the next record's append tears
	for b := 0; b < 4; b++ {
		if err := h.churn(leader, s, rng, 2); err != nil {
			t.Fatal(err)
		}
	}
	waitHeads(t, f, map[string]uint64{id: 4})
	if fsys.Fired() == "" || f.snaps.Load() < 2 {
		t.Fatalf("fault %q, snapshots %d: want the torn append to force a second bootstrap", fsys.Fired(), f.snaps.Load())
	}
	if err := f.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkPromoted(t, standby, id, h, 4)
}

// TestFollowerLeaderDiskFaultRetiresOneSession tears one journal write on
// the leader's disk under one of two sessions: only that session is
// retired, its batch is never acknowledged, and the promoted standby
// serves each session at its acknowledged head.
func TestFollowerLeaderDiskFaultRetiresOneSession(t *testing.T) {
	fsys := errfs.New()
	leader := newTestRegistry(t, Config{DataDir: t.TempDir(), Persist: persist.Options{FS: fsys}})
	rng := rand.New(rand.NewSource(3))
	ids := make([]string, 2)
	sess := make([]*Session, 2)
	hist := make([]*history, 2)
	for i := range ids {
		ids[i], sess[i] = add(t, leader)
		d, err := leader.Acquire(context.Background(), sess[i])
		if err != nil {
			t.Fatal(err)
		}
		hist[i] = newHistory(d)
		if err := hist[i].churn(leader, sess[i], rng, 2); err != nil {
			t.Fatal(err)
		}
	}
	f, standby, _ := startFollower(t, &leaderSource{leader: leader, window: time.Second}, persist.Options{}, 0)
	writes, _, _ := fsys.Ops()
	fsys.FailWrite(writes+1, 3)
	if err := hist[0].churn(leader, sess[0], rng, 2); !errors.Is(err, distec.ErrJournal) {
		t.Fatalf("batch over a torn journal write: err = %v, want ErrJournal", err)
	}
	if _, ok := leader.Get(ids[0]); ok {
		t.Fatal("the faulted session is still registered")
	}
	for b := 0; b < 3; b++ {
		if err := hist[1].churn(leader, sess[1], rng, 2); err != nil {
			t.Fatalf("the healthy session failed after its neighbour's fault: %v", err)
		}
	}
	waitHeads(t, f, map[string]uint64{ids[0]: 1, ids[1]: 4})
	if err := f.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	if seq := checkPromoted(t, standby, ids[0], hist[0], 1); seq != 1 {
		t.Fatalf("the faulted session promoted at seq %d, want its acknowledged 1", seq)
	}
	checkPromoted(t, standby, ids[1], hist[1], 4)
}

// TestFollowerFaultSchedulesProperty runs 24 seeded fault schedules. Each
// churns two leader sessions while a follower replicates them over a
// flaky link (failed and stalled calls), with one torn write on the
// leader's disk and one on the follower's at seeded points, and promotes
// at a seeded moment mid-churn. Faults tear the write they hit (a short
// write). Every promoted session must verify and equal the leader's
// coloring after a prefix of its acknowledged batches.
func TestFollowerFaultSchedulesProperty(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lfs, ffs := errfs.New(), errfs.New()
		leader := newTestRegistry(t, Config{DataDir: t.TempDir(), Persist: persist.Options{FS: lfs, CompactBytes: 200}})
		src := &leaderSource{leader: leader, window: 20 * time.Millisecond}
		var linkMu sync.Mutex
		link := rand.New(rand.NewSource(seed))
		src.setFault(func(ctx context.Context) error {
			linkMu.Lock()
			p := link.Intn(20)
			linkMu.Unlock()
			switch p {
			case 0:
				return errors.New("link down")
			case 1:
				sctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
				defer cancel()
				return stall(sctx)
			}
			return nil
		})
		ids := make([]string, 2)
		sess := make([]*Session, 2)
		hist := make([]*history, 2)
		for i := range ids {
			ids[i], sess[i] = add(t, leader)
			d, err := leader.Acquire(context.Background(), sess[i])
			if err != nil {
				t.Fatal(err)
			}
			hist[i] = newHistory(d)
		}
		f, standby, _ := startFollower(t, src, persist.Options{FS: ffs, CompactBytes: 200}, 0)
		waitHeads(t, f, map[string]uint64{ids[0]: 0, ids[1]: 0})
		lw, _, _ := lfs.Ops()
		lfs.FailWrite(lw+1+rng.Intn(30), rng.Intn(8))
		fw, _, _ := ffs.Ops()
		ffs.FailWrite(fw+1+rng.Intn(30), rng.Intn(8))
		promoteAt := 5 + rng.Intn(20)
		var promoted chan error
		for b := 0; b < 30; b++ {
			if b == promoteAt {
				promoted = make(chan error, 1)
				go func() { promoted <- f.Promote(context.Background()) }()
			}
			i := rng.Intn(2)
			if _, ok := leader.Get(ids[i]); !ok {
				continue // retired by the leader-side fault
			}
			if err := hist[i].churn(leader, sess[i], rng, 1+rng.Intn(3)); err != nil && !errors.Is(err, distec.ErrJournal) {
				t.Fatalf("seed %d: batch %d: %v", seed, b, err)
			}
			time.Sleep(time.Duration(1+rng.Intn(3)) * time.Millisecond)
		}
		if err := <-promoted; err != nil {
			t.Fatalf("seed %d: promote: %v", seed, err)
		}
		var seqs []uint64
		for i, id := range ids {
			if _, ok := standby.Get(id); ok {
				seqs = append(seqs, checkPromoted(t, standby, id, hist[i], 0))
			}
		}
		t.Logf("seed %d: leader fault %q, follower fault %q, promoted at seqs %v of %d and %d acknowledged",
			seed, lfs.Fired(), ffs.Fired(), seqs, len(hist[0].colors)-1, len(hist[1].colors)-1)
		// A follower fault that fires during the promotion's own recovery
		// (its WAL rewrite or compaction) fails that replica's recovery, with
		// the files kept; nothing else may.
		if c := standby.Counts(); c.RecoveryFailures != 0 && ffs.Fired() == "" {
			t.Fatalf("seed %d: promotion failed to recover %d replicas without a fault", seed, c.RecoveryFailures)
		}
	}
}
