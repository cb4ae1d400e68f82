package sessions

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/metrics"
	"github.com/distec/distec/internal/persist"
	"github.com/distec/distec/internal/persist/errfs"
)

// newTestRegistry builds a registry closed at test cleanup, with
// generous limits unless cfg sets its own.
func newTestRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	cfg.Metrics = metrics.New()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 64
	}
	if cfg.MaxResident == 0 {
		cfg.MaxResident = 64
	}
	r := New(cfg)
	t.Cleanup(r.Close)
	return r
}

// newTestDynamic colors an 8-cycle on the sequential engine.
func newTestDynamic(t *testing.T) *distec.Dynamic {
	t.Helper()
	d, err := distec.NewDynamic(distec.Cycle(8), distec.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// chord is a one-update batch inserting a chord of the 8-cycle.
func chord(u, v int) []distec.Update {
	return []distec.Update{{Op: distec.InsertEdge, U: u, V: v}}
}

// add registers a fresh session and returns its ID and registry entry.
func add(t *testing.T, r *Registry) (string, *Session) {
	t.Helper()
	id, err := r.Add(newTestDynamic(t))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := r.Get(id)
	if !ok {
		t.Fatalf("session %s not registered after Add", id)
	}
	return id, s
}

// apply acquires the session and runs one batch on it.
func apply(t *testing.T, r *Registry, s *Session, batch []distec.Update) *distec.Dynamic {
	t.Helper()
	d, err := r.Acquire(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err = r.Apply(context.Background(), s, d, batch)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestIsDirAndList(t *testing.T) {
	root := t.TempDir()
	if _, err := Create(filepath.Join(root, "bbb"), newTestDynamic(t), persist.Options{}); err != nil {
		t.Fatal(err)
	}
	// A WAL without its snapshot is still a session: its restore must fail
	// loudly rather than the directory vanishing from every listing.
	partial := filepath.Join(root, "aaa")
	if err := os.Mkdir(partial, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(partial, persist.WALFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(root, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "file"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if IsDir(root) || IsDir(filepath.Join(root, "empty")) || !IsDir(partial) {
		t.Fatal("IsDir disagrees with the session-directory rule")
	}
	ids, err := List(root)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ids, ",") != "aaa,bbb" {
		t.Fatalf("List = %v, want [aaa bbb]", ids)
	}
	if _, err := List(filepath.Join(root, "missing")); err == nil {
		t.Fatal("List of a missing directory succeeded")
	}
}

// TestCreateFailureRemovesDir injects a failed snapshot write into Create:
// the half-made directory must be gone, or recovery and replication would
// keep tripping over it.
func TestCreateFailureRemovesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	fs := errfs.New()
	fs.FailWrite(1, 0)
	if _, err := Create(dir, newTestDynamic(t), persist.Options{FS: fs}); !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("Create with a failing write: err = %v, want the injected fault", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("failed Create left its directory behind: %v", err)
	}
}

// TestOpenRoundTrip journals batches through Create's hook — with a
// compaction threshold small enough that the hook compacts in the
// background — and requires Open to restore the identical coloring.
func TestOpenRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	d := newTestDynamic(t)
	opts := persist.Options{CompactBytes: 64}
	lg, err := Create(dir, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]distec.Update{chord(0, 2), chord(1, 5), {{Op: distec.DeleteEdge, U: 0, V: 2}}} {
		if _, err := d.ApplyBatch(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	got, lg2, err := Open(context.Background(), dir, nil, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if got.Seq() != 3 {
		t.Fatalf("reopened at seq %d, want 3", got.Seq())
	}
	want, have := d.Colors(), got.Colors()
	for e := range want {
		if want[e] != have[e] {
			t.Fatalf("edge %d: color %d after reopen, want %d", e, have[e], want[e])
		}
	}
	// The reopened session journals on: Compact folds everything into the
	// snapshot and leaves nothing to replay.
	if _, err := got.ApplyBatch(context.Background(), chord(3, 7)); err != nil {
		t.Fatal(err)
	}
	if err := Compact(got, lg2); err != nil {
		t.Fatal(err)
	}
	snap, recs, _, err := persist.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 4 || len(recs) != 0 {
		t.Fatalf("after Compact: snapshot seq %d with %d records, want 4 and 0", snap.Seq, len(recs))
	}
}

// TestOpenAndRebuildFailures pins the failure side of the restore path:
// nothing restores from a directory without a session, a record that does
// not advance the session by exactly one batch, or a snapshot naming an
// unknown algorithm — and a failed Open leaves the files where they were.
func TestOpenAndRebuildFailures(t *testing.T) {
	if _, _, err := Open(context.Background(), t.TempDir(), nil, persist.Options{}); err == nil {
		t.Fatal("Open of an empty directory succeeded")
	}
	dir := filepath.Join(t.TempDir(), "sess")
	lg, err := Create(dir, newTestDynamic(t), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An empty record at the next sequence number applies nothing.
	if err := lg.Append(persist.Record{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(context.Background(), dir, nil, persist.Options{}); err == nil || !strings.Contains(err.Error(), "applied no update") {
		t.Fatalf("Open over an empty record: err = %v", err)
	}
	snap, recs, _, err := persist.ScanDir(dir)
	if err != nil || len(recs) != 1 {
		t.Fatalf("failed Open left %d records (err %v), want the 1 kept", len(recs), err)
	}
	if _, err := Rebuild(context.Background(), snap, nil, nil); err != nil {
		t.Fatalf("Rebuild of the snapshot alone: %v", err)
	}
	gap := []persist.Record{{Seq: 7, Updates: []persist.Update{{Op: persist.OpInsert, U: 0, V: 2}}}}
	if _, err := Rebuild(context.Background(), snap, gap, nil); err == nil || !strings.Contains(err.Error(), "expects batch 1") {
		t.Fatalf("Rebuild over an out-of-sequence record: err = %v", err)
	}
	snap.Algorithm = "warp"
	if _, err := Rebuild(context.Background(), snap, nil, nil); err == nil {
		t.Fatal("Rebuild accepted a snapshot naming an unknown algorithm")
	}
}

// TestSessionLimit pins the registry bound: a full registry with nothing
// idle reports Full, and an Add that races past Full is refused with the
// newcomer closed.
func TestSessionLimit(t *testing.T) {
	r := newTestRegistry(t, Config{MaxSessions: 2})
	add(t, r)
	add(t, r)
	if !r.Full() {
		t.Fatal("registry at its limit not Full")
	}
	d := newTestDynamic(t)
	if _, err := r.Add(d); !errors.Is(err, ErrFull) {
		t.Fatalf("Add past the limit: err = %v, want ErrFull", err)
	}
	if _, err := d.ApplyBatch(context.Background(), chord(0, 2)); !errors.Is(err, distec.ErrSessionClosed) {
		t.Fatalf("refused session still open: err = %v", err)
	}
	if c := r.Counts(); c.Sessions != 2 || c.Creates != 2 || c.Resident != 2 {
		t.Fatalf("counts after a refused Add: %+v", c)
	}
}

// TestAddPersistFailure: a session whose files cannot be created is never
// registered.
func TestAddPersistFailure(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(dataDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r := newTestRegistry(t, Config{DataDir: dataDir})
	if _, err := r.Add(newTestDynamic(t)); err == nil || !strings.Contains(err.Error(), "persist session") {
		t.Fatalf("Add over an unusable data dir: err = %v", err)
	}
	if c := r.Counts(); c.Sessions != 0 || c.Resident != 0 || c.Creates != 0 {
		t.Fatalf("counts after a failed Add: %+v", c)
	}
}

// TestSessionCreateSweepsWhenFull: a full registry holding an expired
// session evicts it inline and has room again, instead of refusing
// creates until the sweeper's next tick.
func TestSessionCreateSweepsWhenFull(t *testing.T) {
	dataDir := t.TempDir()
	r := newTestRegistry(t, Config{DataDir: dataDir, TTL: time.Hour, MaxSessions: 2})
	stale, s := add(t, r)
	add(t, r)
	s.last.Store(time.Now().Add(-2 * time.Hour).UnixNano())
	if r.Full() {
		t.Fatal("registry with an expired session reported Full")
	}
	if _, ok := r.Get(stale); ok {
		t.Fatal("expired session still registered")
	}
	if IsDir(filepath.Join(dataDir, stale)) {
		t.Fatal("evicted session's files survived")
	}
	if _, err := r.Acquire(context.Background(), s); !errors.Is(err, distec.ErrSessionClosed) {
		t.Fatalf("evicted session: err = %v, want ErrSessionClosed", err)
	}
	if c := r.Counts(); c.Evictions != 1 || c.Sessions != 1 {
		t.Fatalf("counts after the sweep: %+v", c)
	}
	add(t, r)
}

// TestSweepSkipsBusySessions: a batch outliving the TTL is busy, not
// abandoned — the sweep must not evict (and delete!) the session under it.
func TestSweepSkipsBusySessions(t *testing.T) {
	r := newTestRegistry(t, Config{TTL: time.Hour})
	_, s := add(t, r)
	s.last.Store(time.Now().Add(-2 * time.Hour).UnixNano())
	s.inflight.Add(1) // a long batch is executing
	if n := r.sweep(); n != 0 {
		t.Fatalf("swept %d busy sessions", n)
	}
	s.inflight.Add(-1)
	if n := r.sweep(); n != 1 {
		t.Fatalf("idle session not swept (%d)", n)
	}
}

// TestIdleSweepLoop leaves a session alone past a short TTL: the
// background sweep evicts it without any further call.
func TestIdleSweepLoop(t *testing.T) {
	r := newTestRegistry(t, Config{TTL: 20 * time.Millisecond})
	add(t, r)
	deadline := time.Now().Add(5 * time.Second)
	for r.Counts().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c := r.Counts(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
}

// TestMemoryOnlySessionsNeverPassivate: without a data dir there is no
// disk state to passivate to, so the residency bound does not apply.
func TestMemoryOnlySessionsNeverPassivate(t *testing.T) {
	r := newTestRegistry(t, Config{MaxResident: 1})
	add(t, r)
	add(t, r)
	if c := r.Counts(); c.Resident != 2 || r.passivations.Load() != 0 {
		t.Fatalf("memory-only sessions passivated: %+v", c)
	}
}

// TestPassivationAndRehydration drives the residency bound: the coldest
// session passivates when a newcomer arrives, rehydrates on access with its
// journaled state intact, and a caller that already gave up pays for no
// replay and leaves the session passivated.
func TestPassivationAndRehydration(t *testing.T) {
	r := newTestRegistry(t, Config{DataDir: t.TempDir(), MaxResident: 1})
	_, a := add(t, r)
	apply(t, r, a, chord(0, 2))
	_, b := add(t, r)
	if a.resident.Load() || !b.resident.Load() || r.passivations.Load() != 1 {
		t.Fatalf("after the second Add: a resident=%v b resident=%v passivations=%d",
			a.resident.Load(), b.resident.Load(), r.passivations.Load())
	}
	// A busy session is never a victim, even over the limit.
	b.inflight.Add(1)
	r.passivate(b)
	b.inflight.Add(-1)
	if !b.resident.Load() {
		t.Fatal("passivation picked a session with a batch in flight")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.Acquire(ctx, a)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrRehydrate) {
		t.Fatalf("Acquire with a cancelled ctx: err = %v, want ErrRehydrate wrapping context.Canceled", err)
	}
	if a.resident.Load() || r.Counts().Resident != 1 {
		t.Fatal("aborted rehydration left the session resident")
	}

	d, err := r.Acquire(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if d.Seq() != 1 || d.Verify() != nil {
		t.Fatalf("rehydrated at seq %d (verify %v), want seq 1 verified", d.Seq(), d.Verify())
	}
	if r.rehydrations.Load() != 1 || r.rehydrateTime.Count() != 1 {
		t.Fatalf("rehydrations = %d, observed %d, want 1", r.rehydrations.Load(), r.rehydrateTime.Count())
	}
	if b.resident.Load() || r.Counts().Resident != 1 {
		t.Fatal("rehydration did not passivate the coldest other session")
	}
}

// TestApplyRetriesAfterPassivation passivates a session between the
// caller's Acquire and its batch: Apply must rehydrate and run the whole
// batch once, so it is applied exactly once.
func TestApplyRetriesAfterPassivation(t *testing.T) {
	dataDir := t.TempDir()
	r := newTestRegistry(t, Config{DataDir: dataDir, MaxResident: 1})
	id, a := add(t, r)
	stale, err := r.Acquire(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	add(t, r) // passivates a under the caller
	d, results, err := r.Apply(context.Background(), a, stale, chord(0, 2))
	if err != nil {
		t.Fatalf("Apply across a passivation: %v", err)
	}
	if d == stale || len(results) != 1 || d.Seq() != 1 {
		t.Fatalf("retry ran on the stale Dynamic or applied %d updates to seq %d", len(results), d.Seq())
	}
	if r.rehydrations.Load() != 1 {
		t.Fatalf("rehydrations = %d, want 1", r.rehydrations.Load())
	}
	if a.inflight.Load() != 0 {
		t.Fatal("Apply left the session marked busy")
	}
	// Durable exactly once: the files hold one batch.
	_, recs, _, err := persist.ScanDir(filepath.Join(dataDir, id))
	if err != nil || len(recs) != 1 {
		t.Fatalf("journal after the retried batch: %d records, err %v; want 1", len(recs), err)
	}
}

// TestConcurrentPassivationChurn runs batches on several sessions at once
// under a residency bound far below their number, so passivation and
// rehydration race the batches constantly. Every acknowledged batch must
// apply exactly once, and every session must end durable and verified. A
// batch can still lose the race twice (ErrSessionPassivated out of Apply,
// which the daemon answers 503); the client's retry then resends it.
func TestConcurrentPassivationChurn(t *testing.T) {
	r := newTestRegistry(t, Config{DataDir: t.TempDir(), MaxResident: 2})
	chords := [][2]int{{0, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 6}, {5, 7}, {0, 3}, {1, 4}}
	var all []*Session
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		_, s := add(t, r)
		all = append(all, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b, c := range chords {
				for {
					d, err := r.Acquire(context.Background(), s)
					if err != nil {
						t.Error(err)
						return
					}
					d, _, err = r.Apply(context.Background(), s, d, chord(c[0], c[1]))
					if errors.Is(err, distec.ErrSessionPassivated) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					if d.Seq() != uint64(b+1) {
						t.Errorf("batch %d acknowledged at seq %d", b+1, d.Seq())
						return
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range all {
		d, err := r.Acquire(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if d.Seq() != uint64(len(chords)) || d.Verify() != nil {
			t.Fatalf("session %s ended at seq %d (verify %v), want %d verified", s.id, d.Seq(), d.Verify(), len(chords))
		}
	}
	if r.passivations.Load() == 0 || r.rehydrations.Load() == 0 {
		t.Fatal("the churn never passivated or rehydrated a session")
	}
}

// TestApplyRetiresOnJournalFailure: once a batch is applied in memory but
// not journaled, the session is retired — unregistered and closed, its
// files kept for the next recovery.
func TestApplyRetiresOnJournalFailure(t *testing.T) {
	dataDir := t.TempDir()
	r := newTestRegistry(t, Config{DataDir: dataDir})
	id, s := add(t, r)
	apply(t, r, s, chord(0, 2))
	d, err := r.Acquire(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	d.SetJournal(func(distec.JournalBatch) error { return errors.New("disk gone") })
	if _, _, err := r.Apply(context.Background(), s, d, chord(1, 5)); !errors.Is(err, distec.ErrJournal) {
		t.Fatalf("Apply with a failing journal: err = %v, want ErrJournal", err)
	}
	if _, ok := r.Get(id); ok {
		t.Fatal("session with a broken journal still registered")
	}
	if _, err := r.Acquire(context.Background(), s); !errors.Is(err, distec.ErrSessionClosed) {
		t.Fatalf("retired session: err = %v, want ErrSessionClosed", err)
	}
	if r.Counts().Resident != 0 {
		t.Fatal("retired session still counted resident")
	}
	snap, recs, _, err := persist.ScanDir(filepath.Join(dataDir, id))
	if err != nil || snap.Seq+uint64(len(recs)) != 1 {
		t.Fatalf("retired session's files: err %v; want the one journaled batch kept", err)
	}
}

// TestRotationFailureAcknowledgesDurableBatch fails the fresh-WAL write of
// the compaction a batch triggers, after the batch's record reached the
// WAL: the batch is durable, so Apply succeeds. The failed rotation
// poisons the log, so the next batch fails with ErrJournal and retires the
// session, and Open recovers the acknowledged batch.
func TestRotationFailureAcknowledgesDurableBatch(t *testing.T) {
	fsys := errfs.New()
	dataDir := t.TempDir()
	r := newTestRegistry(t, Config{DataDir: dataDir, Persist: persist.Options{FS: fsys, CompactBytes: 1}})
	id, s := add(t, r)
	// The batch's append is the next write; the rotation's fresh WAL is
	// the one after it.
	writes, _, _ := fsys.Ops()
	fsys.FailWrite(writes+2, 0)
	want := apply(t, r, s, chord(0, 2)).Colors()
	if !strings.Contains(fsys.Fired(), persist.WALFile+".tmp") {
		t.Fatalf("fault %q, want the rotation's fresh-WAL write", fsys.Fired())
	}
	d, err := r.Acquire(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Apply(context.Background(), s, d, chord(1, 5)); !errors.Is(err, distec.ErrJournal) {
		t.Fatalf("Apply on the poisoned log: err = %v, want ErrJournal", err)
	}
	if _, ok := r.Get(id); ok {
		t.Fatal("session with a poisoned log still registered")
	}
	got, lg, err := Open(context.Background(), filepath.Join(dataDir, id), nil, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if got.Seq() != 1 {
		t.Fatalf("recovered at seq %d, want the acknowledged 1", got.Seq())
	}
	have := got.Colors()
	for e := range want {
		if want[e] != have[e] {
			t.Fatalf("edge %d: recovered color %d, acknowledged %d", e, have[e], want[e])
		}
	}
}

// TestRecover boots a registry over a data dir holding healthy sessions,
// a corrupt one, and an empty directory: the first MaxResident healthy
// sessions load (compacting a WAL past the threshold), the rest are
// adopted passivated, the corrupt one is counted as a failure, and the
// empty directory is not a session at all.
func TestRecover(t *testing.T) {
	dataDir := t.TempDir()
	first := newTestRegistry(t, Config{DataDir: dataDir})
	var ids []string
	for i := 0; i < 4; i++ {
		id, s := add(t, first)
		apply(t, first, s, chord(0, 2))
		apply(t, first, s, chord(1, 5))
		ids = append(ids, id)
	}
	first.Close()
	if err := errfs.FlipByte(filepath.Join(dataDir, ids[3], persist.SnapshotFile), 40, 0x10); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dataDir, "halfborn"), 0o755); err != nil {
		t.Fatal(err)
	}

	r := newTestRegistry(t, Config{DataDir: dataDir, MaxResident: 2, Persist: persist.Options{CompactBytes: 1}})
	r.Recover()
	c := r.Counts()
	if c.Recovered != 3 || c.RecoveryFailures != 1 || c.Sessions != 3 || c.Resident != 2 {
		t.Fatalf("after Recover: %+v, want 3 recovered, 1 failed, 2 resident", c)
	}
	if r.recoveryTime.Count() != 3 {
		t.Fatalf("recovery time observed %d times, want 3", r.recoveryTime.Count())
	}
	if _, ok := r.Get(ids[3]); ok {
		t.Fatal("corrupt session registered")
	}
	if !IsDir(filepath.Join(dataDir, ids[3])) {
		t.Fatal("corrupt session's files removed, want kept for sessionctl")
	}
	for _, id := range ids[:3] {
		s, ok := r.Get(id)
		if !ok {
			t.Fatalf("session %s not recovered", id)
		}
		loaded := s.resident.Load()
		d, err := r.Acquire(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if d.Seq() != 2 {
			t.Fatalf("session %s recovered at seq %d, want 2", id, d.Seq())
		}
		if loaded {
			// Loaded sessions were compacted: nothing left to replay.
			if _, recs, _, err := persist.ScanDir(filepath.Join(dataDir, id)); err != nil || len(recs) != 0 {
				t.Fatalf("session %s after recovery compaction: %d records, err %v", id, len(recs), err)
			}
		}
	}

	missing := newTestRegistry(t, Config{DataDir: filepath.Join(dataDir, "nope")})
	missing.Recover()
	if c := missing.Counts(); c.Recovered != 0 || c.RecoveryFailures != 0 {
		t.Fatalf("Recover over a missing data dir: %+v", c)
	}
}

// TestDeleteAndWaitHead covers the client-facing removal and the
// replication long poll: WaitHead returns as soon as the log is past the
// follower's position, and waits out its ctx for a session with no live
// log.
func TestDeleteAndWaitHead(t *testing.T) {
	dataDir := t.TempDir()
	r := newTestRegistry(t, Config{DataDir: dataDir})
	id, s := add(t, r)
	wait, cancelWait := context.WithTimeout(context.Background(), time.Minute)
	defer cancelWait()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.waitHead(wait, id, 0)
	}()
	apply(t, r, s, chord(0, 2))
	<-done
	if wait.Err() != nil {
		t.Fatal("WaitHead did not wake on the appended batch")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	r.waitHead(ctx, "unknown", 0)
	if ctx.Err() == nil {
		t.Fatal("WaitHead on an unknown session returned before its ctx ended")
	}

	if !r.Delete(id) || r.Delete(id) {
		t.Fatal("Delete must report the session exactly once")
	}
	if _, err := os.Stat(filepath.Join(dataDir, id)); !os.IsNotExist(err) {
		t.Fatalf("deleted session's directory survived: %v", err)
	}
	if c := r.Counts(); c.Deletes != 1 || c.Sessions != 0 || c.Resident != 0 {
		t.Fatalf("counts after Delete: %+v", c)
	}
}

// TestCloseQuiescesAndKeepsFiles: Close ends every session — later
// batches fail with ErrSessionClosed — but keeps their files for the next
// boot. It is idempotent.
func TestCloseQuiescesAndKeepsFiles(t *testing.T) {
	dataDir := t.TempDir()
	r := newTestRegistry(t, Config{DataDir: dataDir, TTL: time.Hour})
	id, s := add(t, r)
	d, err := r.Acquire(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close()
	if _, err := d.ApplyBatch(context.Background(), chord(0, 2)); !errors.Is(err, distec.ErrSessionClosed) {
		t.Fatalf("batch after Close: err = %v, want ErrSessionClosed", err)
	}
	if !IsDir(filepath.Join(dataDir, id)) {
		t.Fatal("Close removed session files")
	}
}
