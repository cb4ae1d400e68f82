package persist_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/distec/distec/internal/persist"
	"github.com/distec/distec/internal/persist/errfs"
)

// The single-fault durability property: whatever one write, fsync, or
// rename the filesystem fails — torn mid-write or failed outright — no
// batch whose Append returned nil may be missing after recovery, and the
// repaired log must serve appends again. The script below is journaled
// once over a clean errfs to enumerate its operations, then replayed in a
// fresh directory once per (operation kind, index, tear shape) with that
// single fault armed.

const (
	scriptBatches   = 12
	scriptCompactAt = 6
)

// scriptSnapshot is the session state after seq batches: edges (i, i+1)
// for i = 1..seq, all active.
func scriptSnapshot(seq uint64) *persist.Snapshot {
	s := &persist.Snapshot{Algorithm: "bko", LivePalette: 3, Seq: seq, N: 32}
	for i := uint64(1); i <= seq; i++ {
		s.EdgeU = append(s.EdgeU, int32(i))
		s.EdgeV = append(s.EdgeV, int32(i+1))
		s.Active = append(s.Active, true)
		s.Colors = append(s.Colors, 0)
	}
	return s
}

// runScript journals batches until the first error and returns the highest
// acknowledged sequence number (0 when even creation failed). Batch seq
// inserts edge (seq, seq+1); a compaction covering 1..scriptCompactAt runs
// mid-stream, exercising rotation, snapshot rewrite (or diff append), and
// retirement under fault.
func runScript(t *testing.T, dir string, fsys persist.FS, diffCompact bool) uint64 {
	opts := persist.Options{Fsync: true, FS: fsys, DiffCompact: diffCompact}
	l, err := persist.CreateLog(dir, func(w io.Writer) error {
		return persist.WriteSnapshot(w, scriptSnapshot(0))
	}, opts)
	if err != nil {
		return 0
	}
	defer l.Close()
	var acked uint64
	for seq := uint64(1); seq <= scriptBatches; seq++ {
		rec := persist.Record{Seq: seq, Updates: []persist.Update{
			{Op: persist.OpInsert, U: int32(seq), V: int32(seq + 1)},
		}}
		if err := l.Append(rec); err != nil {
			return acked
		}
		acked = seq
		if seq == scriptCompactAt {
			var buf bytes.Buffer
			if err := persist.WriteSnapshot(&buf, scriptSnapshot(seq)); err != nil {
				return acked
			}
			if cerr := l.Compact(buf.Bytes()); cerr != nil {
				// A failed compaction poisons the log: later appends fail and
				// stay unacknowledged. Everything acked so far must survive.
				next := persist.Record{Seq: seq + 1, Updates: []persist.Update{
					{Op: persist.OpInsert, U: int32(seq + 1), V: int32(seq + 2)},
				}}
				if err := l.Append(next); err == nil {
					t.Errorf("append after a failed compaction (%v) succeeded", cerr)
				}
				return acked
			}
		}
	}
	return acked
}

// verifyRecovered asserts the recovery invariant on dir: a clean scan
// whose head covers every acked batch, state exactly matching the batch
// stream at that head, and a log that accepts appends after repair.
func verifyRecovered(t *testing.T, dir string, acked uint64, label string) {
	t.Helper()
	snap, replay, _, err := persist.ScanDir(dir)
	if err != nil {
		t.Fatalf("%s: recovery scan failed with %d acked batches: %v", label, acked, err)
	}
	head := snap.Seq
	if n := len(replay); n > 0 {
		head = replay[n-1].Seq
	}
	if head < acked {
		t.Fatalf("%s: acked through seq %d but recovery reaches only %d", label, acked, head)
	}
	// The state at head must be exactly edges (1,2)..(head,head+1): an
	// unacknowledged-but-durable tail record is fine (head advances), a
	// half-applied or mangled batch is not.
	set := map[[2]int32]bool{}
	for e := range snap.EdgeU {
		if snap.Active[e] {
			set[[2]int32{snap.EdgeU[e], snap.EdgeV[e]}] = true
		}
	}
	for _, rec := range replay {
		for _, up := range rec.Updates {
			key := [2]int32{up.U, up.V}
			if up.Op == persist.OpInsert {
				set[key] = true
			} else {
				delete(set, key)
			}
		}
	}
	if uint64(len(set)) != head {
		t.Fatalf("%s: %d edges recovered at head %d (acked %d)", label, len(set), head, acked)
	}
	for i := uint64(1); i <= head; i++ {
		if !set[[2]int32{int32(i), int32(i + 1)}] {
			t.Fatalf("%s: edge (%d,%d) lost (head %d, acked %d)", label, i, i+1, head, acked)
		}
	}
	l, snap2, replay2, err := persist.OpenLog(dir, persist.Options{})
	if err != nil {
		t.Fatalf("%s: OpenLog after fault: %v", label, err)
	}
	defer l.Close()
	head2 := snap2.Seq
	if n := len(replay2); n > 0 {
		head2 = replay2[n-1].Seq
	}
	if head2 != head {
		t.Fatalf("%s: OpenLog head %d != ScanDir head %d", label, head2, head)
	}
	if err := l.Append(persist.Record{Seq: head + 1}); err != nil {
		t.Fatalf("%s: append after repair: %v", label, err)
	}
}

func TestSingleFaultNeverLosesAckedBatch(t *testing.T) {
	for _, mode := range []struct {
		name string
		diff bool
	}{{"full-compaction", false}, {"diff-compaction", true}} {
		t.Run(mode.name, func(t *testing.T) {
			probe := errfs.New()
			probeDir := filepath.Join(t.TempDir(), "probe")
			if acked := runScript(t, probeDir, probe, mode.diff); acked != scriptBatches {
				t.Fatalf("fault-free probe acked %d of %d batches", acked, scriptBatches)
			}
			verifyRecovered(t, probeDir, scriptBatches, "probe")
			writes, syncs, renames := probe.Ops()
			if writes == 0 || syncs == 0 || renames == 0 {
				t.Fatalf("probe counted writes=%d syncs=%d renames=%d — the seam is not wired", writes, syncs, renames)
			}

			base := t.TempDir()
			check := func(label string, fsys *errfs.FS) {
				t.Helper()
				dir := filepath.Join(base, label)
				acked := runScript(t, dir, fsys, mode.diff)
				if fsys.Fired() == "" {
					t.Fatalf("%s: fault never fired", label)
				}
				if _, err := os.Stat(filepath.Join(dir, persist.SnapshotFile)); err != nil {
					// Creation died before the first snapshot landed: nothing
					// was ever acknowledged, so nothing can be lost.
					if acked > 0 {
						t.Fatalf("%s: %d batches acked with no snapshot on disk", label, acked)
					}
					return
				}
				verifyRecovered(t, dir, acked, label)
			}

			for k := 1; k <= writes; k++ {
				// partial 0: the op fails before any byte; 1 and 7 land torn
				// prefixes mid-header and mid-payload (the PR 5 cut shapes).
				for _, partial := range []int{0, 1, 7} {
					fsys := errfs.New()
					fsys.FailWrite(k, partial)
					check(fmt.Sprintf("write-%d-p%d", k, partial), fsys)
				}
			}
			for k := 1; k <= syncs; k++ {
				fsys := errfs.New()
				fsys.FailSync(k)
				check(fmt.Sprintf("sync-%d", k), fsys)
			}
			for k := 1; k <= renames; k++ {
				fsys := errfs.New()
				fsys.FailRename(k)
				check(fmt.Sprintf("rename-%d", k), fsys)
			}
		})
	}
}

// TestPoisonWakesWaitHead parks a replication long poll on a caught-up log
// and poisons the log under it with a torn append 50 ms later. The poll
// must return as soon as the log is poisoned: a poisoned log never
// advances, so sleeping to the deadline only stalls the follower.
func TestPoisonWakesWaitHead(t *testing.T) {
	fs := errfs.New()
	l, err := persist.CreateLog(filepath.Join(t.TempDir(), "sess"), func(w io.Writer) error {
		return persist.WriteSnapshot(w, scriptSnapshot(0))
	}, persist.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	writes, _, _ := fs.Ops()
	fs.FailWrite(writes+1, 3)
	appended := make(chan error, 1)
	time.AfterFunc(50*time.Millisecond, func() {
		appended <- l.Append(persist.Record{Seq: 1, Updates: []persist.Update{{Op: persist.OpInsert, U: 1, V: 2}}})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	head := l.WaitHead(ctx, 0)
	waited := time.Since(start)
	if err := <-appended; !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("torn append: err = %v, want the injected fault", err)
	}
	if head != 0 || waited > time.Second {
		t.Fatalf("WaitHead on a log poisoned at 50 ms returned head %d after %v, want head 0 well before the 2 s deadline", head, waited)
	}
}
