package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sampleSnapshot builds a small but non-trivial snapshot: a 6-cycle with
// one tombstoned edge.
func sampleSnapshot(seq uint64) *Snapshot {
	s := &Snapshot{
		Algorithm:     "bko",
		Seed:          42,
		ConfigPalette: 0,
		LivePalette:   3,
		Seq:           seq,
		N:             6,
	}
	for i := 0; i < 6; i++ {
		u, v := int32(i), int32((i+1)%6)
		if u > v {
			u, v = v, u
		}
		s.EdgeU = append(s.EdgeU, u)
		s.EdgeV = append(s.EdgeV, v)
		s.Active = append(s.Active, i != 3)
		if i == 3 {
			s.Colors = append(s.Colors, -1)
		} else {
			s.Colors = append(s.Colors, int32(i%3))
		}
	}
	return s
}

func encodeSnapshot(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot(7)
	data := encodeSnapshot(t, want)
	got, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Snapshots compose with surrounding stream content: reading must stop
	// exactly at the trailer.
	r := bytes.NewReader(append(append([]byte(nil), data...), "tail"...))
	if _, err := ReadSnapshot(r); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(r)
	if string(rest) != "tail" {
		t.Fatalf("reader consumed past the snapshot: %q left", rest)
	}
	// Odd edge counts exercise the color-array framing.
	odd := sampleSnapshot(1)
	odd.EdgeU = append(odd.EdgeU, 0)
	odd.EdgeV = append(odd.EdgeV, 2)
	odd.Active = append(odd.Active, true)
	odd.Colors = append(odd.Colors, 2)
	got, err = ReadSnapshot(bytes.NewReader(encodeSnapshot(t, odd)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Colors) != 7 || got.Colors[6] != 2 {
		t.Fatalf("odd-m colors: %v", got.Colors)
	}
}

// TestSnapshotCorruption flips, truncates, and oversizes snapshots: every
// mutation must yield an error, never a silent wrong read or a panic.
func TestSnapshotCorruption(t *testing.T) {
	data := encodeSnapshot(t, sampleSnapshot(3))
	t.Run("every-bit-flip", func(t *testing.T) {
		for i := range data {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte(nil), data...)
				bad[i] ^= 1 << bit
				got, err := ReadSnapshot(bytes.NewReader(bad))
				if err == nil {
					t.Fatalf("byte %d bit %d: corruption accepted: %+v", i, bit, got)
				}
			}
		}
	})
	t.Run("every-truncation", func(t *testing.T) {
		for cut := 0; cut < len(data); cut++ {
			if _, err := ReadSnapshot(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("oversized-header", func(t *testing.T) {
		huge := sampleSnapshot(1)
		huge.N = MaxSnapshotNodes + 1
		if err := WriteSnapshot(io.Discard, huge); err == nil {
			t.Fatal("oversized node count written")
		}
	})
}

// scanWAL reads buf's records through the frame reader; clean reports
// frames that end exactly at the end of buf.
func scanWAL(buf []byte) ([]Record, bool, error) {
	recs, n, err := scanFrames(buf, decodeRecord)
	return recs, n == len(buf), err
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Updates: []Update{{Op: OpInsert, U: 0, V: 1}}},
		{Seq: 2, Updates: []Update{{Op: OpDelete, U: 0, V: 1}, {Op: OpInsert, U: 2, V: 5}}},
		{Seq: 3, Updates: nil},
	}
	var buf []byte
	boundaries := map[int]bool{0: true}
	for _, rec := range recs {
		buf = appendRecord(buf, rec)
		boundaries[len(buf)] = true
	}
	got, clean, err := scanWAL(buf)
	if err != nil || !clean {
		t.Fatalf("scan: clean=%v err=%v", clean, err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
	// Any truncation point drops at most the final record and is reported
	// as unclean; earlier records always survive intact.
	for cut := 0; cut < len(buf); cut++ {
		got, clean, err := scanWAL(buf[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if clean != boundaries[cut] {
			t.Fatalf("cut %d: clean=%v, want %v (record boundary)", cut, clean, boundaries[cut])
		}
		for i, rec := range got {
			if rec.Seq != recs[i].Seq || len(rec.Updates) != len(recs[i].Updates) {
				t.Fatalf("cut %d: surviving record %d mangled: %+v", cut, i, rec)
			}
		}
	}
	// A bit flip invalidates the record it lands in (and ends the log there).
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		got, clean, err := scanWAL(bad)
		if err != nil {
			t.Fatalf("flip %d: %v", i, err)
		}
		if clean && len(got) == len(recs) {
			// The flip must have corrupted something; only flips inside a
			// record's own bytes are required to kill it, but none may pass
			// through unnoticed with identical content.
			same := true
			for j := range got {
				if fmt.Sprintf("%+v", got[j]) != fmt.Sprintf("%+v", recs[j]) {
					same = false
				}
			}
			if same {
				t.Fatalf("flip %d: checksum missed the corruption", i)
			}
		}
	}
}

func mustCreateLog(t *testing.T, dir string, snap *Snapshot, opts Options) *Log {
	t.Helper()
	l, err := CreateLog(dir, func(w io.Writer) error { return WriteSnapshot(w, snap) }, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendN(t *testing.T, l *Log, from, count uint64) {
	t.Helper()
	for seq := from; seq < from+count; seq++ {
		rec := Record{Seq: seq, Updates: []Update{{Op: OpInsert, U: int32(seq), V: int32(seq + 1)}}}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLogCreateAppendRecover(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, sampleSnapshot(0), Options{})
	appendN(t, l, 1, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, snap, replay, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if snap.Seq != 0 || len(replay) != 5 {
		t.Fatalf("snap.Seq=%d replay=%d", snap.Seq, len(replay))
	}
	for i, rec := range replay {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("replay[%d].Seq = %d", i, rec.Seq)
		}
	}
	// Appends continue after recovery.
	appendN(t, l2, 6, 1)
	l2.Close()
	_, _, replay, err = OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 6 {
		t.Fatalf("replay after reopen+append: %d records", len(replay))
	}
}

// TestLogTornTail cuts the WAL at every byte offset inside its final
// record: recovery must keep the earlier records and discard the tear, and
// the repaired WAL must accept appends cleanly.
func TestLogTornTail(t *testing.T) {
	base := t.TempDir()
	build := func(name string) string {
		dir := filepath.Join(base, name)
		l := mustCreateLog(t, dir, sampleSnapshot(0), Options{})
		appendN(t, l, 1, 3)
		l.Close()
		return dir
	}
	ref := build("ref")
	full, err := os.ReadFile(filepath.Join(ref, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	// The final record starts after magic + two records of equal size.
	recSize := (len(full) - len(walMagic)) / 3
	lastStart := len(full) - recSize
	for cut := lastStart; cut < len(full); cut++ {
		dir := build(fmt.Sprintf("cut%d", cut))
		if err := os.Truncate(filepath.Join(dir, WALFile), int64(cut)); err != nil {
			t.Fatal(err)
		}
		l, snap, replay, err := OpenLog(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if snap.Seq != 0 || len(replay) != 2 {
			t.Fatalf("cut %d: snap.Seq=%d replay=%d, want 2 surviving records", cut, snap.Seq, len(replay))
		}
		appendN(t, l, 3, 1)
		l.Close()
		_, _, replay, err = OpenLog(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d reopen: %v", cut, err)
		}
		if len(replay) != 3 {
			t.Fatalf("cut %d: %d records after repair+append", cut, len(replay))
		}
	}
}

func TestLogCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, sampleSnapshot(0), Options{CompactBytes: 64})
	appendN(t, l, 1, 4)
	if !l.NeedsCompaction() {
		t.Fatalf("WAL at %d bytes past threshold 64 not flagged", l.WALSize())
	}
	if err := l.Compact(encodeSnapshot(t, sampleSnapshot(4))); err != nil {
		t.Fatal(err)
	}
	if l.NeedsCompaction() {
		t.Fatal("fresh WAL flagged for compaction")
	}
	appendN(t, l, 5, 1)
	l.Close()
	_, snap, replay, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 4 || len(replay) != 1 || replay[0].Seq != 5 {
		t.Fatalf("after compaction: snap.Seq=%d replay=%+v", snap.Seq, replay)
	}
	if _, err := os.Stat(filepath.Join(dir, walPrevFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("wal.prev left behind: %v", err)
	}
}

func TestLogCompactAsync(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, sampleSnapshot(0), Options{CompactBytes: 64})
	appendN(t, l, 1, 4)
	if err := l.CompactAsync(encodeSnapshot(t, sampleSnapshot(4))); err != nil {
		t.Fatal(err)
	}
	// Appends interleave with the background snapshot write.
	appendN(t, l, 5, 2)
	if err := l.Close(); err != nil { // Close waits for the background work
		t.Fatal(err)
	}
	_, snap, replay, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 4 || len(replay) != 2 {
		t.Fatalf("after async compaction: snap.Seq=%d replay=%d", snap.Seq, len(replay))
	}
}

// gateFS is the real filesystem, except that once armed, opening a
// snapshot tmp file blocks until release is closed: it holds a
// compaction's finish mid-flight.
type gateFS struct {
	osFS
	armed   atomic.Bool
	entered chan struct{} // one send per held open; buffered for both compactions
	release chan struct{}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if g.armed.Load() && filepath.Base(name) == SnapshotFile+".tmp" {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.osFS.OpenFile(name, flag, perm)
}

// TestCompactionWaitsForInFlight pins the serialized compaction path:
// while a background compaction is still finishing, a WAL grown past the
// threshold again reports NeedsCompaction, and the next CompactAsync
// waits for the first to finish instead of failing. Which batch triggers
// a compaction then depends only on the bytes appended.
func TestCompactionWaitsForInFlight(t *testing.T) {
	g := &gateFS{entered: make(chan struct{}, 2), release: make(chan struct{})}
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, sampleSnapshot(0), Options{CompactBytes: 64, FS: g})
	appendN(t, l, 1, 4)
	g.armed.Store(true)
	if err := l.CompactAsync(encodeSnapshot(t, sampleSnapshot(4))); err != nil {
		t.Fatal(err)
	}
	<-g.entered // the first compaction's finish is held
	appendN(t, l, 5, 4)
	if !l.NeedsCompaction() {
		t.Fatalf("WAL at %d bytes past threshold 64 not flagged while a compaction finishes", l.WALSize())
	}
	state := encodeSnapshot(t, sampleSnapshot(8))
	second := make(chan error, 1)
	go func() { second <- l.CompactAsync(state) }()
	select {
	case err := <-second:
		t.Fatalf("second compaction returned (%v) while the first was still finishing", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	if err := <-second; err != nil {
		t.Fatalf("second compaction: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, snap, replay, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 8 || len(replay) != 0 {
		t.Fatalf("after two compactions: snap.Seq=%d replay=%d, want 8 and 0", snap.Seq, len(replay))
	}
}

// TestLogCompactionCrashPoints simulates a crash at each stage of an
// interrupted compaction by reconstructing the on-disk state it leaves, and
// requires recovery to reach the same final state from every one.
func TestLogCompactionCrashPoints(t *testing.T) {
	type stage struct {
		name string
		muck func(t *testing.T, dir string, newSnap []byte)
	}
	stages := []stage{
		{"after-rotation", func(t *testing.T, dir string, _ []byte) {
			// wal renamed to wal.prev, fresh wal created, snapshot still old.
		}},
		{"snapshot-tmp-written", func(t *testing.T, dir string, newSnap []byte) {
			if err := os.WriteFile(filepath.Join(dir, SnapshotFile+".tmp"), newSnap, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"snapshot-renamed", func(t *testing.T, dir string, newSnap []byte) {
			if err := os.WriteFile(filepath.Join(dir, SnapshotFile), newSnap, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "sess")
			l := mustCreateLog(t, dir, sampleSnapshot(0), Options{})
			appendN(t, l, 1, 3)
			// Crash mid-compaction: rotate happened, then the stage's extra
			// progress; post-rotation appends land in the fresh wal.
			if err := l.rotate(); err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 4, 2)
			l.compactMu.Unlock() // the compaction dies before its finish
			l.Close()
			st.muck(t, dir, encodeSnapshot(t, sampleSnapshot(3)))
			l2, snap, replay, err := OpenLog(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			// Whatever the snapshot generation, snapshot.Seq + replay must
			// reach exactly seq 5.
			if got := snap.Seq + uint64(len(replay)); got != 5 {
				t.Fatalf("recovered to seq %d (snap %d + %d records), want 5", got, snap.Seq, len(replay))
			}
			for i, rec := range replay {
				if rec.Seq != snap.Seq+uint64(i)+1 {
					t.Fatalf("replay[%d].Seq = %d after snap %d", i, rec.Seq, snap.Seq)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, walPrevFile)); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("recovery left wal.prev behind")
			}
			if _, err := os.Stat(filepath.Join(dir, SnapshotFile+".tmp")); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("recovery left snapshot.tmp behind")
			}
		})
	}
}

func TestLogSeqGapRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, sampleSnapshot(0), Options{})
	if err := l.Append(Record{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Seq: 3}); err != nil { // gap: 2 missing
		t.Fatal(err)
	}
	l.Close()
	if _, _, _, err := OpenLog(dir, Options{}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap not rejected: %v", err)
	}
}

func TestLogFsyncMode(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, sampleSnapshot(0), Options{Fsync: true, CompactBytes: 64})
	appendN(t, l, 1, 3)
	if err := l.Compact(encodeSnapshot(t, sampleSnapshot(3))); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 1)
	l.Close()
	_, snap, replay, err := OpenLog(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 3 || len(replay) != 1 {
		t.Fatalf("fsync mode: snap.Seq=%d replay=%d", snap.Seq, len(replay))
	}
}

func TestOpenLogMissingPieces(t *testing.T) {
	t.Run("no-snapshot", func(t *testing.T) {
		dir := t.TempDir()
		if _, _, _, err := OpenLog(dir, Options{}); err == nil {
			t.Fatal("opened a directory with no snapshot")
		}
	})
	t.Run("no-wal", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "sess")
		l := mustCreateLog(t, dir, sampleSnapshot(2), Options{})
		l.Close()
		if err := os.Remove(filepath.Join(dir, WALFile)); err != nil {
			t.Fatal(err)
		}
		l2, snap, replay, err := OpenLog(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if snap.Seq != 2 || len(replay) != 0 {
			t.Fatalf("snapshot-only recovery: seq=%d replay=%d", snap.Seq, len(replay))
		}
	})
	t.Run("stray-tmp", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "sess")
		l := mustCreateLog(t, dir, sampleSnapshot(0), Options{})
		l.Close()
		os.WriteFile(filepath.Join(dir, SnapshotFile+".tmp"), []byte("junk"), 0o644)
		l2, _, _, err := OpenLog(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if _, err := os.Stat(filepath.Join(dir, SnapshotFile+".tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("stray snapshot.tmp not removed")
		}
	})
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, sampleSnapshot(0), Options{})
	l.Close()
	if err := l.Append(Record{Seq: 1}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Compact(nil); err == nil {
		t.Fatal("compact after close succeeded")
	}
}

// TestAppendFailurePoisonsLog pins the mid-log-tear guard: once an append
// fails (possibly leaving a partial record), every later append must fail
// too — appending past a tear would bury acknowledged batches behind bytes
// recovery treats as end-of-log.
func TestAppendFailurePoisonsLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, sampleSnapshot(0), Options{})
	appendN(t, l, 1, 1)
	l.wal.Close() // forces the next write to fail mid-append
	if err := l.Append(Record{Seq: 2}); err == nil {
		t.Fatal("append on a failing file succeeded")
	}
	if err := l.Append(Record{Seq: 3}); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append after failure: %v, want poisoned", err)
	}
	if l.NeedsCompaction() {
		t.Fatal("poisoned log offered for compaction")
	}
	if err := l.Compact(nil); err == nil {
		t.Fatal("compaction of a poisoned log succeeded")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close hid the poison")
	}
	// The durable prefix survives: recovery returns record 1 only.
	_, _, replay, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 1 || replay[0].Seq != 1 {
		t.Fatalf("recovered %+v, want the pre-failure record", replay)
	}
}

// TestAppendAllocationFree pins Log.Append, a //distec:hotpath, at zero
// allocations per call once its encode buffer has grown.
func TestAppendAllocationFree(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, sampleSnapshot(0), Options{})
	defer l.Close()
	rec := Record{Updates: []Update{{Op: OpInsert, U: 1, V: 2}, {Op: OpDelete, U: 3, V: 4}}}
	allocs := testing.AllocsPerRun(100, func() {
		rec.Seq++
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v times per call, want 0", allocs)
	}
}

// TestAppendRejectsOversizedRecord pins the size guard: a record the reader
// would refuse as corrupt must be refused at append time, not written,
// acknowledged, and then silently discarded on recovery.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, sampleSnapshot(0), Options{})
	defer l.Close()
	huge := Record{Seq: 1, Updates: make([]Update, maxRecordBytes/updateBytes+1)}
	if err := l.Append(huge); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized record: %v", err)
	}
	// The refusal is clean, not a poison: normal appends still work.
	appendN(t, l, 1, 1)
}

// TestScanDirMissingWALNotTorn: a missing WAL file (crash between a
// rotation's rename and the fresh file) holds nothing and tears nothing.
func TestScanDirMissingWALNotTorn(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	l := mustCreateLog(t, dir, sampleSnapshot(2), Options{})
	l.Close()
	if err := os.Remove(filepath.Join(dir, WALFile)); err != nil {
		t.Fatal(err)
	}
	_, replay, info, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornTail {
		t.Fatal("missing WAL reported as a torn record")
	}
	if len(replay) != 0 {
		t.Fatalf("missing WAL yielded %d records", len(replay))
	}
}
