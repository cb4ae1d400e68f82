package persist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// File names inside a session directory. SnapshotFile and WALFile are the
// durable pair; DiffFile holds differential snapshots appended between full
// snapshot rewrites; the others are transient compaction state (a stale tmp
// is removed on open, a leftover wal.prev is merged).
const (
	SnapshotFile    = "snapshot"
	snapshotTmpFile = "snapshot.tmp"
	WALFile         = "wal"
	walPrevFile     = "wal.prev"
	walTmpFile      = "wal.tmp"
	DiffFile        = "diff"
	diffTmpFile     = "diff.tmp"
)

// DefaultCompactBytes is the WAL size past which a compaction is suggested
// when Options.CompactBytes is zero.
const DefaultCompactBytes = 1 << 20

// diffMaxChain is the differential-snapshot chain length past which a
// compaction falls back to a full snapshot rewrite. Bounding the chain
// bounds both recovery's merge work and the lost-space of superseded
// diff records.
const diffMaxChain = 8

// Options configures a Log.
type Options struct {
	// Fsync selects durable mode: every append and snapshot is fsynced, so
	// committed batches survive OS crashes and power loss. Without it,
	// writes still reach the kernel per batch — surviving a process crash
	// or kill, the failure recovery is designed around — but an OS crash
	// can lose the tail (which recovery then discards cleanly).
	Fsync bool
	// CompactBytes is the WAL size past which NeedsCompaction reports true
	// (0: DefaultCompactBytes).
	CompactBytes int64
	// DiffCompact enables differential compaction: when the delta since the
	// last persisted state encodes to less than half the full snapshot, a
	// compaction appends one diff record instead of rewriting the whole
	// snapshot. Every diffMaxChain'th compaction (and any compaction whose
	// delta is not small enough) falls back to a full rewrite, which also
	// retires the diff file.
	DiffCompact bool
	// FS, when set, routes the log's mutating filesystem operations (file
	// creation, appends, fsyncs, renames, removals) through a test double;
	// nil selects the real filesystem. Read paths always read the real
	// files. See internal/persist/errfs.
	FS FS
	// Metrics, when set, receives the log's persistence counters (WAL
	// appends and bytes, fsyncs, snapshot writes, compactions, recovery
	// outcomes). One Metrics set is shared across all the process's logs.
	Metrics *Metrics
}

func (o Options) compactBytes() int64 {
	if o.CompactBytes <= 0 {
		return DefaultCompactBytes
	}
	return o.CompactBytes
}

// Log is one session's durability state on disk: the snapshot file (plus
// any differential-snapshot chain) and the append-only WAL. Appends are
// serialized internally; compaction can run in the background
// (CompactAsync) with only its rotation step synchronous.
type Log struct {
	dir  string
	opts Options
	fsys FS

	mu         sync.Mutex
	wal        File
	walSize    int64
	enc        []byte // append scratch, reused across batches
	compacting bool
	// poisoned is the first unrecoverable write failure (a failed or
	// partial append, a failed background compaction). It fails every later
	// append loudly: after a partial record, silently appending more would
	// bury acknowledged batches behind a mid-log tear that recovery must
	// treat as the end of the log.
	poisoned error
	closed   bool
	// head is the highest sequence number durably appended (or covered by
	// the snapshot at open); headC is closed and replaced on every advance,
	// waking WaitHead long-polls.
	head  uint64
	headC chan struct{}
	bg    sync.WaitGroup

	// Differential-compaction state, touched only while a compaction is in
	// flight (compactions are serialized by the compacting flag) or during
	// construction: the parsed state as of the last compaction point
	// (lazily loaded from disk), the number of live diff records, and the
	// diff file's size.
	base      *Snapshot
	diffChain int
	diffSize  int64
}

func newLog(dir string, opts Options) *Log {
	return &Log{dir: dir, opts: opts, fsys: opts.fs(), headC: make(chan struct{})}
}

// CreateLog initializes dir (created if needed) with the snapshot written
// by writeSnap and an empty WAL, and returns the log ready for appends. If
// the snapshot covers a nonzero sequence number, follow with SetHead.
func CreateLog(dir string, writeSnap func(io.Writer) error, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	l := newLog(dir, opts)
	if err := l.writeSnapshotFile(writeSnap); err != nil {
		return nil, err
	}
	if err := l.resetWAL(nil); err != nil {
		return nil, err
	}
	return l, nil
}

// ScanInfo summarizes what a read-only directory scan found, for
// inspection tooling.
type ScanInfo struct {
	// WALBytes is the live WAL's size; PrevBytes the leftover wal.prev's
	// (0 when absent — the normal state); DiffBytes the diff file's.
	WALBytes, PrevBytes, DiffBytes int64
	// Records counts the surviving replayable records; Stale the records
	// skipped as already covered by the snapshot (compaction leftovers);
	// TornTail reports a discarded torn final record.
	Records, Stale int
	TornTail       bool
	// Diffs counts the differential snapshots merged over the base
	// snapshot; StaleDiffs those skipped as already covered by it;
	// TornDiff reports a discarded torn final diff record.
	Diffs, StaleDiffs int
	TornDiff          bool
}

// ScanDir reads a session directory without modifying anything: the
// effective snapshot (the base snapshot with every differential snapshot
// merged over it), the records to replay over it (seq-filtered, contiguous,
// torn tail discarded, an interrupted compaction's wal.prev merged), and a
// scan summary. OpenLog performs the same recovery and then repairs the
// files; inspection tooling uses ScanDir alone.
func ScanDir(dir string) (*Snapshot, []Record, ScanInfo, error) {
	snap, _, replay, info, err := scanDirFull(dir)
	return snap, replay, info, err
}

// scanDirFull is ScanDir plus the surviving diff records, which OpenLog
// needs to repair the diff file.
func scanDirFull(dir string) (*Snapshot, []*diff, []Record, ScanInfo, error) {
	var info ScanInfo
	f, err := os.Open(filepath.Join(dir, SnapshotFile))
	if err != nil {
		return nil, nil, nil, info, fmt.Errorf("persist: %w", err)
	}
	snap, err := ReadSnapshot(f)
	f.Close()
	if err != nil {
		return nil, nil, nil, info, err
	}
	// Merge the differential-snapshot chain first: the effective snapshot
	// is base ⊕ diffs, and the WAL's seq filter keys off the merged seq.
	// Diff records at or below the base's seq are compaction leftovers
	// (a crash between a full compaction's snapshot rename and diff-file
	// removal) and are skipped like stale WAL records.
	var live []*diff
	if sc, err := readDiffFile(filepath.Join(dir, DiffFile)); err == nil {
		info.TornDiff = !sc.clean
		for _, d := range sc.diffs {
			if d.seq <= snap.Seq {
				info.StaleDiffs++
				continue
			}
			if err := applyDiff(snap, d); err != nil {
				return nil, nil, nil, info, err
			}
			live = append(live, d)
		}
		info.Diffs = len(live)
		if fi, err := os.Stat(filepath.Join(dir, DiffFile)); err == nil {
			info.DiffBytes = fi.Size()
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, info, err
	}
	// wal.prev (if an async compaction was cut down mid-flight) strictly
	// precedes wal: rotation creates the fresh wal only after wal.prev is
	// complete, so the prev file can only hold a torn tail if no later
	// records exist at all.
	var recs []Record
	prevClean := true
	if prev, err := readWALFile(filepath.Join(dir, walPrevFile)); err == nil {
		recs, prevClean = prev.records, prev.clean
		if fi, err := os.Stat(filepath.Join(dir, walPrevFile)); err == nil {
			info.PrevBytes = fi.Size()
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, info, err
	}
	cur, err := readWALFile(filepath.Join(dir, WALFile))
	if errors.Is(err, os.ErrNotExist) {
		// A missing WAL (crash between a rotation's rename and the fresh
		// file) holds nothing and tears nothing.
		cur = walScan{clean: true}
	} else if err != nil {
		return nil, nil, nil, info, err
	}
	if fi, err := os.Stat(filepath.Join(dir, WALFile)); err == nil {
		info.WALBytes = fi.Size()
	}
	if !prevClean && len(cur.records) > 0 {
		return nil, nil, nil, info, fmt.Errorf("persist: wal.prev torn at seq %d yet wal holds later records", lastSeq(recs))
	}
	info.TornTail = !prevClean || !cur.clean
	recs = append(recs, cur.records...)
	// Keep the records beyond the snapshot; everything they skip must chain
	// contiguously from it (a gap means lost records, not a clean tear).
	replay := recs[:0]
	next := snap.Seq + 1
	for _, rec := range recs {
		if rec.Seq <= snap.Seq {
			info.Stale++
			continue
		}
		if rec.Seq != next {
			return nil, nil, nil, info, fmt.Errorf("persist: WAL gap: want seq %d, found %d (snapshot at %d)", next, rec.Seq, snap.Seq)
		}
		replay = append(replay, rec)
		next++
	}
	info.Records = len(replay)
	return snap, live, replay, info, nil
}

// OpenLog recovers dir: it parses the snapshot, merges the differential
// chain and any interrupted compaction's wal.prev with the current WAL,
// discards torn tails, rewrites the WAL (and, when damaged, the diff file)
// to exactly the surviving records, and returns the log (ready for
// appends), the effective snapshot, and the records to replay over it —
// the records with sequence numbers beyond the snapshot's, contiguous and
// in order.
func OpenLog(dir string, opts Options) (*Log, *Snapshot, []Record, error) {
	l := newLog(dir, opts)
	l.fsys.Remove(filepath.Join(dir, snapshotTmpFile)) // stray tmp from a crashed compaction
	l.fsys.Remove(filepath.Join(dir, walTmpFile))      // stray tmp from a crashed open
	l.fsys.Remove(filepath.Join(dir, diffTmpFile))     // stray tmp from a crashed diff repair
	snap, diffs, replay, info, err := scanDirFull(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	opts.Metrics.countRecovery(len(replay), info.TornTail)
	// Rewrite the WAL to exactly the surviving records (tail repair + merge
	// in one step), via tmp+rename so a crash mid-open is itself safe.
	if err := l.resetWAL(replay); err != nil {
		return nil, nil, nil, err
	}
	l.fsys.Remove(filepath.Join(dir, walPrevFile))
	if info.TornDiff || info.StaleDiffs > 0 || (info.DiffBytes > 0 && info.Diffs == 0) {
		if err := l.resetDiff(diffs); err != nil {
			return nil, nil, nil, err
		}
	} else {
		l.diffChain = len(diffs)
		l.diffSize = info.DiffBytes
	}
	if opts.Fsync {
		syncDir(dir)
	}
	l.head = snap.Seq
	if s := lastSeq(replay); s > l.head {
		l.head = s
	}
	return l, snap, replay, nil
}

type walScan struct {
	records []Record
	clean   bool
}

func readWALFile(path string) (walScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return walScan{}, err
	}
	defer f.Close()
	if err := checkWALMagic(f); err != nil {
		if errors.Is(err, errTorn) {
			return walScan{clean: false}, nil // crash before the magic landed
		}
		return walScan{}, fmt.Errorf("persist: %s: %w", path, err)
	}
	recs, clean, err := scanWAL(f)
	if err != nil {
		return walScan{}, fmt.Errorf("persist: %s: %w", path, err)
	}
	return walScan{records: recs, clean: clean}, nil
}

func lastSeq(recs []Record) uint64 {
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].Seq
}

// resetWAL replaces the WAL with one holding exactly recs, atomically via
// tmp+rename, and leaves l.wal open for appends. Caller must not hold l.mu
// with appends in flight (used only at construction).
func (l *Log) resetWAL(recs []Record) error {
	if l.wal != nil {
		l.wal.Close()
	}
	path := filepath.Join(l.dir, WALFile)
	tmp := filepath.Join(l.dir, walTmpFile)
	buf := walMagic[:]
	for _, rec := range recs {
		buf = appendRecord(buf, rec)
	}
	if err := writeFileSync(l.fsys, tmp, buf, l.opts.Fsync); err != nil {
		return err
	}
	if err := l.fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if l.opts.Fsync {
		syncDir(l.dir)
	}
	f, err := l.fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	l.wal, l.walSize = f, int64(len(buf))
	return nil
}

// resetDiff rewrites the diff file to exactly the surviving diff records
// (removing it when none survive), atomically via tmp+rename. Used only at
// construction, like resetWAL.
func (l *Log) resetDiff(diffs []*diff) error {
	path := filepath.Join(l.dir, DiffFile)
	if len(diffs) == 0 {
		if err := l.fsys.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("persist: %w", err)
		}
		l.diffChain, l.diffSize = 0, 0
		return nil
	}
	buf := diffMagic[:]
	for _, d := range diffs {
		buf = appendDiffRecord(buf, d)
	}
	tmp := filepath.Join(l.dir, diffTmpFile)
	if err := writeFileSync(l.fsys, tmp, buf, l.opts.Fsync); err != nil {
		return err
	}
	if err := l.fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	l.diffChain, l.diffSize = len(diffs), int64(len(buf))
	return nil
}

// Append journals one applied batch. The write reaches the kernel before
// Append returns (and stable storage in Fsync mode), so an acknowledged
// batch survives a process crash. A failed write poisons the log: a partial
// record is a tear recovery treats as end-of-log, so appending past it
// would silently bury every later batch behind it.
//
//distec:hotpath
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("persist: log closed")
	}
	if l.poisoned != nil {
		return fmt.Errorf("persist: log poisoned: %w", l.poisoned)
	}
	if size := recordHeaderBytes + recordPayloadFixed + updateBytes*len(rec.Updates); size > maxRecordBytes {
		// An oversized record would be written whole yet rejected by the
		// reader's corruption bound — acknowledged but unrecoverable, along
		// with everything after it. Refuse it up front.
		return fmt.Errorf("persist: record of %d bytes exceeds the WAL record limit %d", size, maxRecordBytes)
	}
	l.enc = appendRecord(l.enc[:0], rec)
	// Writing (and fsyncing) under l.mu is this type's design, not an
	// accident: the lock is the WAL's serialization point, and the
	// durability contract is exactly "the write completed before Append
	// returned". Callers own the latency tradeoff via Options.Fsync.
	//distec:nolint lockio
	n, err := l.wal.Write(l.enc)
	l.walSize += int64(n)
	if err != nil {
		l.poisoned = fmt.Errorf("WAL append wrote %d of %d bytes: %w", n, len(l.enc), err)
		return fmt.Errorf("persist: %w", l.poisoned)
	}
	if l.opts.Fsync {
		//distec:nolint lockio
		if err := l.wal.Sync(); err != nil {
			// The record's durability is unknown; no later append may be
			// acknowledged on top of it.
			l.poisoned = fmt.Errorf("WAL fsync: %w", err)
			return fmt.Errorf("persist: %w", l.poisoned)
		}
	}
	l.opts.Metrics.countAppend(n, l.opts.Fsync)
	if rec.Seq > l.head {
		l.head = rec.Seq
		l.broadcastHeadLocked()
	}
	return nil
}

func (l *Log) broadcastHeadLocked() {
	close(l.headC)
	l.headC = make(chan struct{})
}

// Head returns the highest sequence number the log has durably appended
// (or that the snapshot covered at open).
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// SetHead records the sequence number a freshly created log's snapshot
// covers. CreateLog writes the snapshot opaquely and assumes sequence 0;
// callers creating a log from a session that has already applied batches
// (a promoted replica, a re-homed session) call SetHead once right after.
func (l *Log) SetHead(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.head {
		l.head = seq
		l.broadcastHeadLocked()
	}
}

// WaitHead blocks until the log's head sequence exceeds after, the log
// closes or is poisoned, or ctx is done, and returns the head it observed
// last — the long-poll primitive behind WAL streaming replication.
func (l *Log) WaitHead(ctx context.Context, after uint64) uint64 {
	l.mu.Lock()
	for l.head <= after && !l.closed && l.poisoned == nil && ctx.Err() == nil {
		c := l.headC
		l.mu.Unlock()
		select {
		case <-ctx.Done():
		case <-c:
		}
		l.mu.Lock()
	}
	head := l.head
	l.mu.Unlock()
	return head
}

// WALSize returns the WAL's current size in bytes.
func (l *Log) WALSize() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.walSize
}

// Dir returns the session directory the log manages.
func (l *Log) Dir() string { return l.dir }

// NeedsCompaction reports whether the WAL has outgrown the compaction
// threshold and no compaction is already in flight.
func (l *Log) NeedsCompaction() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.compacting && l.poisoned == nil && !l.closed && l.walSize >= l.opts.compactBytes()
}

// Compact persists the state encodedSnap (a WriteSnapshot-encoded state
// that must cover every record currently in the WAL) and retires the WAL,
// synchronously — as a full snapshot rewrite, or as one appended diff
// record when Options.DiffCompact is set and the delta is small. The caller
// guarantees no concurrent Append (the distec journal hook runs under the
// session lock, which serializes both).
func (l *Log) Compact(encodedSnap []byte) error {
	if err := l.rotate(); err != nil {
		return err
	}
	err := l.finishCompaction(encodedSnap)
	l.opts.Metrics.countCompaction(err)
	l.mu.Lock()
	l.compacting = false
	if err != nil && l.poisoned == nil {
		l.poisoned = err
	}
	l.mu.Unlock()
	return err
}

// CompactAsync is Compact with only the rotation step synchronous: the
// snapshot write and old-WAL removal run in the background (serialized with
// Close). A background failure poisons the log — the next Append reports it.
func (l *Log) CompactAsync(encodedSnap []byte) error {
	if err := l.rotate(); err != nil {
		return err
	}
	l.bg.Add(1)
	go func() {
		defer l.bg.Done()
		err := l.finishCompaction(encodedSnap)
		l.opts.Metrics.countCompaction(err)
		l.mu.Lock()
		l.compacting = false
		if err != nil && l.poisoned == nil {
			l.poisoned = err
		}
		l.mu.Unlock()
	}()
	return nil
}

// rotate moves the live WAL aside (wal → wal.prev) and opens a fresh one,
// marking a compaction in flight.
func (l *Log) rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("persist: log closed")
	}
	if l.compacting {
		return fmt.Errorf("persist: compaction already in flight")
	}
	if l.poisoned != nil {
		return fmt.Errorf("persist: log poisoned: %w", l.poisoned)
	}
	// Rotation swaps files under l.mu on purpose: no Append may land
	// between retiring the old WAL and opening the fresh one, or it would
	// be lost to both. Rotation is rare (one per compaction) and brief.
	//distec:nolint lockio
	l.wal.Close()
	//distec:nolint lockio
	if err := l.fsys.Rename(filepath.Join(l.dir, WALFile), filepath.Join(l.dir, walPrevFile)); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	path := filepath.Join(l.dir, WALFile)
	//distec:nolint lockio
	if err := writeFileSync(l.fsys, path, walMagic[:], l.opts.Fsync); err != nil {
		return err
	}
	//distec:nolint lockio
	f, err := l.fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	l.wal, l.walSize = f, int64(len(walMagic))
	l.compacting = true
	return nil
}

// finishCompaction lands the new state — an appended diff record when
// differential compaction applies, a full snapshot rewrite otherwise — and
// removes the retired WAL. If it fails partway, recovery still works: the
// old state plus wal.prev plus the live WAL replay to the same point, and
// stale records (WAL and diff alike) are skipped by sequence number.
func (l *Log) finishCompaction(encodedSnap []byte) error {
	if l.opts.DiffCompact {
		if done, err := l.tryDiffCompaction(encodedSnap); done || err != nil {
			return err
		}
	}
	if err := l.writeSnapshotFile(func(w io.Writer) error {
		_, err := w.Write(encodedSnap)
		return err
	}); err != nil {
		return err
	}
	// The snapshot now covers the whole diff chain; retire it. A crash
	// before this removal leaves stale diff records recovery skips.
	if err := l.fsys.Remove(filepath.Join(l.dir, DiffFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("persist: %w", err)
	}
	l.diffChain, l.diffSize = 0, 0
	if cur, err := ReadSnapshot(bytes.NewReader(encodedSnap)); err == nil {
		l.base = cur
	} else {
		l.base = nil
	}
	if err := l.fsys.Remove(filepath.Join(l.dir, walPrevFile)); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if l.opts.Fsync {
		syncDir(l.dir)
	}
	return nil
}

// tryDiffCompaction attempts the differential path: compute the delta from
// the last persisted state to encodedSnap and append it to the diff file.
// It reports done=true when the compaction completed differentially; (false,
// nil) falls back to a full rewrite — because the chain is at its bound,
// the delta is not small enough to pay, or the base state is unusable. A
// torn diff append also falls back: the full rewrite retires the diff file,
// healing the tear.
func (l *Log) tryDiffCompaction(encodedSnap []byte) (bool, error) {
	if l.diffChain >= diffMaxChain {
		return false, nil
	}
	cur, err := ReadSnapshot(bytes.NewReader(encodedSnap))
	if err != nil {
		return false, nil
	}
	base, err := l.loadBase()
	if err != nil {
		return false, nil
	}
	if cur.Seq <= base.Seq {
		// Nothing new since the last compaction point (an explicit compact
		// of an idle session): the retired WAL holds only stale records.
		if err := l.fsys.Remove(filepath.Join(l.dir, walPrevFile)); err != nil {
			return true, fmt.Errorf("persist: %w", err)
		}
		if l.opts.Fsync {
			syncDir(l.dir)
		}
		return true, nil
	}
	d, err := computeDiff(base, cur)
	if err != nil {
		return false, nil
	}
	size := encodedDiffSize(d)
	if size > maxRecordBytes || 2*size >= len(encodedSnap) {
		return false, nil
	}
	if err := l.appendDiffFile(d, size); err != nil {
		return false, nil
	}
	l.base = cur
	if err := l.fsys.Remove(filepath.Join(l.dir, walPrevFile)); err != nil {
		return true, fmt.Errorf("persist: %w", err)
	}
	if l.opts.Fsync {
		syncDir(l.dir)
	}
	return true, nil
}

// loadBase returns the state as of the last compaction point: the cached
// copy when a compaction already ran, else the on-disk snapshot with the
// diff chain merged (without the WAL — exactly what compaction supersedes).
func (l *Log) loadBase() (*Snapshot, error) {
	if l.base != nil {
		return l.base, nil
	}
	f, err := os.Open(filepath.Join(l.dir, SnapshotFile))
	if err != nil {
		return nil, err
	}
	snap, err := ReadSnapshot(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if sc, err := readDiffFile(filepath.Join(l.dir, DiffFile)); err == nil {
		for _, d := range sc.diffs {
			if d.seq <= snap.Seq {
				continue
			}
			if err := applyDiff(snap, d); err != nil {
				return nil, err
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	l.base = snap
	return snap, nil
}

// appendDiffFile appends one framed diff record (creating the file, magic
// first, when absent) and makes it durable in Fsync mode. The caller
// treats any failure as a torn tail and falls back to a full rewrite.
func (l *Log) appendDiffFile(d *diff, size int) error {
	path := filepath.Join(l.dir, DiffFile)
	buf := make([]byte, 0, size+len(diffMagic))
	if l.diffSize == 0 {
		buf = append(buf, diffMagic[:]...)
	}
	buf = appendDiffRecord(buf, d)
	f, err := l.fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if l.opts.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	l.diffChain++
	l.diffSize += int64(len(buf))
	l.opts.Metrics.countDiffCompaction(len(buf))
	return nil
}

// writeSnapshotFile writes the snapshot via tmp+rename so the previous
// snapshot stays intact until the new one is durably complete.
func (l *Log) writeSnapshotFile(writeSnap func(io.Writer) error) error {
	tmp := filepath.Join(l.dir, snapshotTmpFile)
	f, err := l.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := writeSnap(f); err != nil {
		f.Close()
		l.fsys.Remove(tmp)
		return err
	}
	if l.opts.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("persist: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := l.fsys.Rename(tmp, filepath.Join(l.dir, SnapshotFile)); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if l.opts.Fsync {
		syncDir(l.dir)
	}
	l.opts.Metrics.countSnapshot()
	return nil
}

// Close waits for any background compaction and closes the WAL. The first
// background failure, if any, is returned.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.broadcastHeadLocked() // wake replication long-polls for a clean exit
	l.mu.Unlock()
	l.bg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.wal != nil {
		// Closing under l.mu keeps a racing Append from writing into a
		// closed descriptor; the log is already marked closed, so nothing
		// else can queue behind this.
		//distec:nolint lockio
		err = l.wal.Close()
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	return err
}

func writeFileSync(fsys FS, path string, data []byte, fsync bool) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("persist: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so renames within it are durable; best effort
// (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
