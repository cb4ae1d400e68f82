package persist

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// wideSnapshot builds a snapshot with m path edges, big enough that a
// small diff clearly beats a full rewrite.
func wideSnapshot(seq uint64, m int) *Snapshot {
	s := &Snapshot{Algorithm: "bko", Seed: 1, LivePalette: 3, Seq: seq, N: m + 1}
	for i := 0; i < m; i++ {
		s.EdgeU = append(s.EdgeU, int32(i))
		s.EdgeV = append(s.EdgeV, int32(i+1))
		s.Active = append(s.Active, true)
		s.Colors = append(s.Colors, int32(i%3))
	}
	return s
}

func cloneSnapshot(s *Snapshot) *Snapshot {
	c := *s
	c.EdgeU = append([]int32(nil), s.EdgeU...)
	c.EdgeV = append([]int32(nil), s.EdgeV...)
	c.Active = append([]bool(nil), s.Active...)
	c.Colors = append([]int32(nil), s.Colors...)
	return &c
}

func TestComputeApplyDiffRoundTrip(t *testing.T) {
	base := wideSnapshot(3, 40)
	cur := cloneSnapshot(base)
	cur.Seq = 9
	cur.LivePalette = 5
	cur.Colors[4] = 4
	cur.Active[7] = false
	cur.Colors[7] = -1
	cur.EdgeU = append(cur.EdgeU, 2, 5)
	cur.EdgeV = append(cur.EdgeV, 9, 11)
	cur.Active = append(cur.Active, true, false)
	cur.Colors = append(cur.Colors, 2, -1)

	d, err := computeDiff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.newU) != 2 || len(d.chID) != 2 {
		t.Fatalf("diff shape: %d new, %d changed", len(d.newU), len(d.chID))
	}
	got := cloneSnapshot(base)
	if err := applyDiff(got, d); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", cur) {
		t.Fatalf("merge mismatch:\n got %+v\nwant %+v", got, cur)
	}
	// A stale diff must be rejected (callers skip it by seq first).
	if err := applyDiff(got, d); err == nil {
		t.Fatal("stale diff applied twice")
	}
	// A base whose edges disagree cannot be diffed against.
	bad := cloneSnapshot(base)
	bad.EdgeV[0] = 7
	if _, err := computeDiff(bad, cur); err == nil {
		t.Fatal("diff across disagreeing edge prefixes accepted")
	}
}

func TestDiffRecordTornAndCorrupt(t *testing.T) {
	base := wideSnapshot(0, 10)
	cur := cloneSnapshot(base)
	cur.Seq = 2
	cur.Colors[3] = 2
	d1, err := computeDiff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	cur2 := cloneSnapshot(cur)
	cur2.Seq = 5
	cur2.Active[1] = false
	cur2.Colors[1] = -1
	d2, err := computeDiff(cur, cur2)
	if err != nil {
		t.Fatal(err)
	}
	buf := diffMagic[:]
	buf = appendDiffRecord(buf, d1)
	mid := len(buf)
	buf = appendDiffRecord(buf, d2)

	dir := t.TempDir()
	path := filepath.Join(dir, DiffFile)
	write := func(b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(buf)
	sc, err := scanFile(path, diffMagic, decodeDiff)
	if err != nil || !sc.clean || len(sc.items) != 2 {
		t.Fatalf("full read: clean=%v diffs=%d err=%v", sc.clean, len(sc.items), err)
	}
	// Any truncation inside the second record keeps the first and reports
	// the tear.
	for cut := mid + 1; cut < len(buf); cut++ {
		write(buf[:cut])
		sc, err := scanFile(path, diffMagic, decodeDiff)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if sc.clean || len(sc.items) != 1 || sc.items[0].seq != 2 {
			t.Fatalf("cut %d: clean=%v diffs=%d", cut, sc.clean, len(sc.items))
		}
	}
	// A flipped byte inside a record's payload or frame kills that record.
	for i := len(diffMagic); i < len(buf); i++ {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x10
		write(bad)
		sc, err := scanFile(path, diffMagic, decodeDiff)
		if err != nil {
			continue // bounds violation detected loudly — fine
		}
		if sc.clean && len(sc.items) == 2 &&
			fmt.Sprintf("%+v %+v", sc.items[0], sc.items[1]) == fmt.Sprintf("%+v %+v", d1, d2) {
			t.Fatalf("flip %d passed unnoticed", i)
		}
	}
}

// TestLogDiffCompaction drives the differential path end to end: small
// deltas append diff records (leaving the base snapshot untouched),
// recovery merges them, the chain bound forces a periodic full rewrite
// that retires the diff file, and an oversized delta falls back to full.
func TestLogDiffCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	var met Metrics
	opts := Options{DiffCompact: true, Metrics: &met}
	snap := wideSnapshot(0, 120)
	l := mustCreateLog(t, dir, snap, opts)

	state := cloneSnapshot(snap)
	seq := uint64(0)
	step := func(mutate func(*Snapshot)) {
		t.Helper()
		seq++
		if err := l.Append(Record{Seq: seq, Updates: []Update{{Op: OpInsert, U: 0, V: 1}}}); err != nil {
			t.Fatal(err)
		}
		state.Seq = seq
		mutate(state)
		if err := l.Compact(encodeSnapshot(t, state)); err != nil {
			t.Fatal(err)
		}
	}

	// diffMaxChain small deltas ride the diff chain.
	for i := 0; i < diffMaxChain; i++ {
		step(func(s *Snapshot) { s.Colors[i] = int32((int(s.Colors[i]) + 1) % 3) })
		if got := met.diffCompacts.Load(); got != uint64(i+1) {
			t.Fatalf("step %d: %d diff compactions", i, got)
		}
		raw, err := os.Open(filepath.Join(dir, SnapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		baseSnap, err := ReadSnapshot(raw)
		raw.Close()
		if err != nil {
			t.Fatal(err)
		}
		if baseSnap.Seq != 0 {
			t.Fatalf("step %d: base snapshot rewritten to seq %d", i, baseSnap.Seq)
		}
	}
	// Recovery merges the chain.
	merged, replay, info, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Seq != diffMaxChain || len(replay) != 0 || info.Diffs != diffMaxChain {
		t.Fatalf("merged seq=%d replay=%d diffs=%d", merged.Seq, len(replay), info.Diffs)
	}
	if fmt.Sprintf("%v", merged.Colors) != fmt.Sprintf("%v", state.Colors) {
		t.Fatalf("merged colors diverge from the compacted state")
	}
	// The next compaction hits the chain bound: full rewrite, diff file
	// retired.
	step(func(s *Snapshot) { s.Colors[10] = 0 })
	if met.diffCompacts.Load() != diffMaxChain {
		t.Fatalf("chain bound did not force a full rewrite")
	}
	if _, err := os.Stat(filepath.Join(dir, DiffFile)); !os.IsNotExist(err) {
		t.Fatalf("diff file survived a full compaction: %v", err)
	}
	merged, _, _, err = ScanDir(dir)
	if err != nil || merged.Seq != diffMaxChain+1 {
		t.Fatalf("after full rewrite: seq=%d err=%v", merged.Seq, err)
	}
	// A delta touching most of the state is not worth a diff record.
	step(func(s *Snapshot) {
		for i := range s.Colors {
			s.Colors[i] = int32((int(s.Colors[i]) + 1) % 3)
		}
	})
	if met.diffCompacts.Load() != diffMaxChain {
		t.Fatalf("whole-state delta still compacted differentially")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen mid-chain: diff state must carry over (chain counted, next
	// compactions keep chaining until the bound).
	l2, merged, _, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Seq != diffMaxChain+2 {
		t.Fatalf("reopened at seq %d", merged.Seq)
	}
	seq = diffMaxChain + 2
	state.Seq = seq
	step2 := func() {
		seq++
		if err := l2.Append(Record{Seq: seq, Updates: []Update{{Op: OpInsert, U: 0, V: 1}}}); err != nil {
			t.Fatal(err)
		}
		state.Seq = seq
		state.Colors[0] = int32((int(state.Colors[0]) + 1) % 3)
		if err := l2.Compact(encodeSnapshot(t, state)); err != nil {
			t.Fatal(err)
		}
	}
	l = l2
	step2()
	if met.diffCompacts.Load() != diffMaxChain+1 {
		t.Fatalf("diff chaining did not resume after reopen")
	}
	l2.Close()
	merged, _, _, err = ScanDir(dir)
	if err != nil || merged.Seq != diffMaxChain+3 {
		t.Fatalf("final state: seq=%d err=%v", merged.Seq, err)
	}
}

// TestLogDiffCrashArtifacts checks the two crash footprints specific to the
// diff chain: a stale diff file left by a crash between a full compaction's
// snapshot rename and diff removal, and a torn final diff record from a
// crash mid diff-append. Both must recover cleanly, and OpenLog must repair
// the files.
func TestLogDiffCrashArtifacts(t *testing.T) {
	t.Run("stale-diff-after-full-compaction", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "sess")
		opts := Options{DiffCompact: true}
		snap := wideSnapshot(0, 60)
		l := mustCreateLog(t, dir, snap, opts)
		state := cloneSnapshot(snap)
		state.Seq = 1
		state.Colors[0] = 0
		if err := l.Append(Record{Seq: 1, Updates: []Update{{Op: OpInsert, U: 0, V: 1}}}); err != nil {
			t.Fatal(err)
		}
		if err := l.Compact(encodeSnapshot(t, state)); err != nil {
			t.Fatal(err)
		}
		l.Close()
		diffBytes, err := os.ReadFile(filepath.Join(dir, DiffFile))
		if err != nil {
			t.Fatal(err)
		}
		// "Crash" between full-compaction steps: snapshot already covers the
		// diff, but the diff file was never removed.
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), encodeSnapshot(t, state), 0o644); err != nil {
			t.Fatal(err)
		}
		merged, _, info, err := ScanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Seq != 1 || info.StaleDiffs != 1 || info.Diffs != 0 {
			t.Fatalf("seq=%d stale=%d live=%d", merged.Seq, info.StaleDiffs, info.Diffs)
		}
		l2, _, _, err := OpenLog(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		l2.Close()
		if _, err := os.Stat(filepath.Join(dir, DiffFile)); !os.IsNotExist(err) {
			t.Fatalf("OpenLog left the stale diff file: %v", err)
		}
		_ = diffBytes
	})

	t.Run("torn-diff-tail", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "sess")
		opts := Options{DiffCompact: true}
		snap := wideSnapshot(0, 60)
		l := mustCreateLog(t, dir, snap, opts)
		appendN(t, l, 1, 4)
		l.Close()
		// "Crash" mid diff-append: magic plus half a record. The WAL still
		// holds records 1..4 (wal.prev removal happens only after the diff
		// record is durable), so nothing is lost.
		state := cloneSnapshot(snap)
		state.Seq = 2
		state.Colors[0] = 1
		d, err := computeDiff(snap, state)
		if err != nil {
			t.Fatal(err)
		}
		frame := appendDiffRecord(nil, d)
		torn := append(append([]byte(nil), diffMagic[:]...), frame[:len(frame)/2]...)
		if err := os.WriteFile(filepath.Join(dir, DiffFile), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		merged, replay, info, err := ScanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !info.TornDiff || merged.Seq != 0 || len(replay) != 4 {
			t.Fatalf("torn=%v seq=%d replay=%d", info.TornDiff, merged.Seq, len(replay))
		}
		l2, _, replay, err := OpenLog(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(replay) != 4 {
			t.Fatalf("OpenLog replay=%d", len(replay))
		}
		l2.Close()
		if _, err := os.Stat(filepath.Join(dir, DiffFile)); !os.IsNotExist(err) {
			t.Fatalf("OpenLog left the torn diff file: %v", err)
		}
	})
}

func TestComputeDiffRejectsZeroAdvance(t *testing.T) {
	// computeDiff tolerates equal seqs (tryDiffCompaction short-circuits
	// them before calling it); applyDiff is the gate that refuses them.
	base := wideSnapshot(3, 8)
	cur := cloneSnapshot(base)
	d, err := computeDiff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyDiff(cloneSnapshot(base), d); err == nil {
		t.Fatal("zero-advance diff applied")
	}
}

func TestLogHeadAndWaitHead(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, wideSnapshot(0, 4), Options{})
	if got := l.Head(); got != 0 {
		t.Fatalf("fresh head %d", got)
	}
	done := make(chan uint64, 1)
	go func() {
		done <- l.WaitHead(context.Background(), 0)
	}()
	select {
	case h := <-done:
		t.Fatalf("WaitHead returned %d before any append", h)
	case <-time.After(20 * time.Millisecond):
	}
	appendN(t, l, 1, 2)
	select {
	case h := <-done:
		if h < 1 {
			t.Fatalf("woke at head %d", h)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitHead missed the append")
	}
	// A bounded wait returns at the deadline when nothing advances.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if h := l.WaitHead(ctx, 99); h != 2 {
		t.Fatalf("timed-out wait returned head %d", h)
	}
	// Close wakes waiters.
	go func() {
		done <- l.WaitHead(context.Background(), 99)
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake WaitHead")
	}

	// Reopen: head resumes at the last durable record; SetHead only moves
	// forward.
	l2, _, _, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Head(); got != 2 {
		t.Fatalf("reopened head %d", got)
	}
	l2.SetHead(1)
	if got := l2.Head(); got != 2 {
		t.Fatalf("SetHead moved head backwards to %d", got)
	}
	l2.SetHead(7)
	if got := l2.Head(); got != 7 {
		t.Fatalf("SetHead(7) → head %d", got)
	}
}
