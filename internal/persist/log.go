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
// snapshot rewrites; wal.prev is transient compaction state (a leftover one
// is merged on open). The three durable files are replaced whole through a
// name.tmp file (Log.commit); a stale tmp is removed on open.
const (
	SnapshotFile = "snapshot"
	WALFile      = "wal"
	walPrevFile  = "wal.prev"
	DiffFile     = "diff"
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
// (CompactAsync) with only its rotation step synchronous. Compactions are
// serialized too: one that starts while the previous one is still
// finishing waits for it.
type Log struct {
	dir  string
	opts Options
	fsys FS

	// compactMu is held from a compaction's rotate to the end of its
	// finish, which may run on the background goroutine CompactAsync
	// starts. The next rotate, and Close, wait on it.
	compactMu sync.Mutex

	mu      sync.Mutex
	wal     File
	walSize int64
	enc     []byte // append scratch, reused across batches
	// poisoned is the first unrecoverable write failure (a failed or
	// partial append, a failed compaction). It fails every later append
	// loudly: after a partial record, silently appending more would bury
	// acknowledged batches behind a mid-log tear that recovery must treat
	// as the end of the log.
	poisoned error
	closed   bool
	// head is the highest sequence number durably appended (or covered by
	// the snapshot at open). headC is made by a WaitHead that has to block
	// and closed and cleared by the next advance, so an append no one waits
	// on allocates nothing.
	head  uint64
	headC chan struct{}

	// Differential-compaction state, touched only under compactMu or during
	// construction: the parsed state as of the last compaction point (nil
	// until a diff compaction loads it from disk), the number of live diff
	// records, and the diff file's size.
	base      *Snapshot
	diffChain int
	diffSize  int64
}

// CreateLog initializes dir (created if needed) with the snapshot written
// by writeSnap and an empty WAL, and returns the log ready for appends. If
// the snapshot covers a nonzero sequence number, follow with SetHead.
func CreateLog(dir string, writeSnap func(io.Writer) error, opts Options) (*Log, error) {
	var snap bytes.Buffer
	if err := writeSnap(&snap); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	l := &Log{dir: dir, opts: opts, fsys: opts.fs()}
	if err := l.commit(SnapshotFile, snap.Bytes()); err != nil {
		return nil, err
	}
	opts.Metrics.countSnapshot()
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
	snap, live, diffs, err := loadBase(dir)
	if err != nil {
		return nil, nil, nil, ScanInfo{}, err
	}
	info := ScanInfo{Diffs: len(live), StaleDiffs: len(diffs.items) - len(live), TornDiff: !diffs.clean, DiffBytes: diffs.size}
	// wal.prev (if an async compaction was cut down mid-flight) strictly
	// precedes wal: rotation creates the fresh wal only after wal.prev is
	// complete, so the prev file can only hold a torn tail if no later
	// records exist at all. A missing wal (crash between a rotation's
	// rename and the fresh file) holds nothing and tears nothing.
	prev, err := scanFile(filepath.Join(dir, walPrevFile), walMagic, decodeRecord)
	if err != nil {
		return nil, nil, nil, info, err
	}
	cur, err := scanFile(filepath.Join(dir, WALFile), walMagic, decodeRecord)
	if err != nil {
		return nil, nil, nil, info, err
	}
	info.PrevBytes, info.WALBytes = prev.size, cur.size
	if !prev.clean && len(cur.items) > 0 {
		return nil, nil, nil, info, fmt.Errorf("persist: wal.prev torn at seq %d yet wal holds later records", lastSeq(prev.items))
	}
	info.TornTail = !prev.clean || !cur.clean
	recs := append(prev.items, cur.items...)
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

// loadBase reads dir's snapshot and merges its diff chain over it: the
// state as of the last compaction point, without the WAL — what recovery
// replays the WAL over and what differential compaction diffs against. It
// also returns the live diffs and the diff file's scan. Diff records at or
// below the snapshot's seq are compaction leftovers (a crash between a full
// compaction's snapshot rename and its diff-file removal) and are skipped
// like stale WAL records.
func loadBase(dir string) (*Snapshot, []*diff, fileScan[*diff], error) {
	var diffs fileScan[*diff]
	f, err := os.Open(filepath.Join(dir, SnapshotFile))
	if err != nil {
		return nil, nil, diffs, fmt.Errorf("persist: %w", err)
	}
	snap, err := ReadSnapshot(f)
	f.Close()
	if err == nil {
		diffs, err = scanFile(filepath.Join(dir, DiffFile), diffMagic, decodeDiff)
	}
	if err != nil {
		return nil, nil, diffs, err
	}
	var live []*diff
	for _, d := range diffs.items {
		if d.seq <= snap.Seq {
			continue
		}
		if err := applyDiff(snap, d); err != nil {
			return nil, nil, diffs, err
		}
		live = append(live, d)
	}
	return snap, live, diffs, nil
}

// OpenLog recovers dir: it parses the snapshot, merges the differential
// chain and any interrupted compaction's wal.prev with the current WAL,
// discards torn tails, rewrites the WAL (and, when damaged, the diff file)
// to exactly the surviving records, and returns the log (ready for
// appends), the effective snapshot, and the records to replay over it —
// the records with sequence numbers beyond the snapshot's, contiguous and
// in order.
func OpenLog(dir string, opts Options) (*Log, *Snapshot, []Record, error) {
	l := &Log{dir: dir, opts: opts, fsys: opts.fs()}
	for _, name := range []string{SnapshotFile, WALFile, DiffFile} {
		l.fsys.Remove(filepath.Join(dir, name+".tmp")) // stray tmp from a crashed commit
	}
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
	l.diffChain, l.diffSize = len(diffs), info.DiffBytes
	if info.TornDiff || info.StaleDiffs > 0 || (info.DiffBytes > 0 && info.Diffs == 0) {
		if err := l.resetDiff(diffs); err != nil {
			return nil, nil, nil, err
		}
	}
	if opts.Fsync {
		syncDir(dir)
	}
	l.head = max(snap.Seq, lastSeq(replay))
	return l, snap, replay, nil
}

func lastSeq(recs []Record) uint64 {
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].Seq
}

// resetWAL replaces the WAL with one holding exactly recs (through commit)
// and leaves l.wal open on it for appends. It runs at construction, and
// under l.mu in a rotation.
func (l *Log) resetWAL(recs []Record) error {
	if l.wal != nil {
		l.wal.Close()
	}
	buf := walMagic[:]
	for _, rec := range recs {
		buf = appendRecord(buf, rec)
	}
	if err := l.commit(WALFile, buf); err != nil {
		return err
	}
	f, err := l.fsys.OpenFile(filepath.Join(l.dir, WALFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	l.wal, l.walSize = f, int64(len(buf))
	return nil
}

// resetDiff replaces the diff file with one holding exactly diffs (through
// commit), or removes it when there are none: at open, to repair a torn or
// stale chain, and after a full compaction, to retire the chain the new
// snapshot covers.
func (l *Log) resetDiff(diffs []*diff) error {
	l.diffChain, l.diffSize = 0, 0
	if len(diffs) == 0 {
		if err := l.fsys.Remove(filepath.Join(l.dir, DiffFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("persist: %w", err)
		}
		return nil
	}
	buf := diffMagic[:]
	for _, d := range diffs {
		buf = appendDiffRecord(buf, d)
	}
	if err := l.commit(DiffFile, buf); err != nil {
		return err
	}
	l.diffChain, l.diffSize = len(diffs), int64(len(buf))
	return nil
}

// commit replaces the file name in the log's directory with data: it
// writes name.tmp, renames it over name, and in Fsync mode fsyncs the tmp
// before the rename and the directory after it. Until the rename the old
// file stays intact; a tmp left by a crash is removed at the next open.
func (l *Log) commit(name string, data []byte) error {
	path := filepath.Join(l.dir, name)
	tmp := path + ".tmp"
	f, err := l.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	_, err = f.Write(data)
	if err == nil && l.opts.Fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.fsys.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if l.opts.Fsync {
		syncDir(l.dir)
	}
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
	if err := l.writableLocked(); err != nil {
		return err
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
		return l.poisonLocked(fmt.Errorf("WAL append wrote %d of %d bytes: %w", n, len(l.enc), err))
	}
	if l.opts.Fsync {
		//distec:nolint lockio
		if err := l.wal.Sync(); err != nil {
			// The record's durability is unknown; no later append may be
			// acknowledged on top of it.
			return l.poisonLocked(fmt.Errorf("WAL fsync: %w", err))
		}
	}
	l.opts.Metrics.countAppend(n, l.opts.Fsync)
	if rec.Seq > l.head {
		l.head = rec.Seq
		l.broadcastHeadLocked()
	}
	return nil
}

// writableLocked is the error a write to a closed or poisoned log
// reports, nil otherwise.
func (l *Log) writableLocked() error {
	if l.closed {
		return fmt.Errorf("persist: log closed")
	}
	if l.poisoned != nil {
		return fmt.Errorf("persist: log poisoned: %w", l.poisoned)
	}
	return nil
}

// poisonLocked records err as the log's unrecoverable write failure,
// keeping the first one, wakes the WaitHead long-polls so none sleeps on a
// log that will never advance, and returns err for the caller to report.
func (l *Log) poisonLocked(err error) error {
	if l.poisoned == nil {
		l.poisoned = err
	}
	l.broadcastHeadLocked()
	return fmt.Errorf("persist: %w", err)
}

// broadcastHeadLocked wakes the WaitHead long-polls, if any wait.
func (l *Log) broadcastHeadLocked() {
	if l.headC != nil {
		close(l.headC)
		l.headC = nil
	}
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
		if l.headC == nil {
			l.headC = make(chan struct{})
		}
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

// NeedsCompaction reports whether the WAL has outgrown the compaction
// threshold on a log that is neither closed nor poisoned. The WAL's size
// alone decides: a compaction still finishing hides nothing, since the next
// one waits for it.
func (l *Log) NeedsCompaction() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poisoned == nil && !l.closed && l.walSize >= l.opts.compactBytes()
}

// Compact persists the state encodedSnap (a WriteSnapshot-encoded state
// that must cover every record currently in the WAL) and retires the WAL,
// synchronously — as a full snapshot rewrite, or as one appended diff
// record when Options.DiffCompact is set and the delta is small. The caller
// guarantees no concurrent Append (the distec journal hook runs under the
// session lock, which serializes both). A failed compaction poisons the
// log.
func (l *Log) Compact(encodedSnap []byte) error {
	if err := l.rotate(); err != nil {
		return err
	}
	return l.finish(encodedSnap)
}

// CompactAsync is Compact with only the rotation synchronous: finish runs
// in the background, and a background failure poisons the log — the next
// Append reports it.
func (l *Log) CompactAsync(encodedSnap []byte) error {
	if err := l.rotate(); err != nil {
		return err
	}
	go l.finish(encodedSnap)
	return nil
}

// rotate starts a compaction: it takes compactMu, waiting for the previous
// compaction to finish, then moves the live WAL aside (wal → wal.prev) and
// opens a fresh one. On success compactMu stays held until finish.
func (l *Log) rotate() error {
	l.compactMu.Lock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writableLocked(); err != nil {
		l.compactMu.Unlock()
		return err
	}
	// Rotation swaps files under l.mu on purpose: no Append may land
	// between retiring the old WAL and opening the fresh one, or it would
	// be lost to both. Rotation is rare (one per compaction) and brief.
	//distec:nolint lockio
	err := l.fsys.Rename(filepath.Join(l.dir, WALFile), filepath.Join(l.dir, walPrevFile))
	if err == nil {
		//distec:nolint lockio
		err = l.resetWAL(nil)
	}
	if err != nil {
		err = fmt.Errorf("WAL rotation: %w", err)
		l.opts.Metrics.countCompaction(err)
		l.compactMu.Unlock()
		return l.poisonLocked(err)
	}
	return nil
}

// finish lands a rotated compaction, counts it, and releases compactMu. A
// failure poisons the log before the release, so the compaction waiting
// for it fails too.
func (l *Log) finish(encodedSnap []byte) error {
	defer l.compactMu.Unlock()
	err := l.land(encodedSnap)
	l.opts.Metrics.countCompaction(err)
	if err != nil {
		l.mu.Lock()
		l.poisonLocked(err)
		l.mu.Unlock()
	}
	return err
}

// land writes the new state — an appended diff record when differential
// compaction applies, a full snapshot rewrite otherwise — and removes the
// retired WAL. If it fails partway, recovery still works: the old state
// plus wal.prev plus the live WAL replay to the same point, and stale
// records (WAL and diff alike) are skipped by sequence number.
func (l *Log) land(encodedSnap []byte) error {
	var cur *Snapshot
	if l.opts.DiffCompact {
		// Parsed once: the diff is taken against it and it becomes the next
		// base. A state that does not parse lands as a full rewrite.
		cur, _ = ReadSnapshot(bytes.NewReader(encodedSnap))
	}
	if !l.appendDiff(cur, len(encodedSnap)) {
		if err := l.commit(SnapshotFile, encodedSnap); err != nil {
			return err
		}
		l.opts.Metrics.countSnapshot()
		// The snapshot now covers the whole diff chain; retire it. A crash
		// before this removal leaves stale diff records recovery skips.
		if err := l.resetDiff(nil); err != nil {
			return err
		}
		l.base = cur
	}
	if err := l.fsys.Remove(filepath.Join(l.dir, walPrevFile)); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if l.opts.Fsync {
		syncDir(l.dir)
	}
	return nil
}

// appendDiff tries the differential path: append the delta from the last
// compaction point to cur (nil when differential compaction is off or the
// state did not parse) to the diff file. It reports whether the compaction
// is done; false falls back to a full rewrite — because the chain is at its
// bound, the delta is not small enough to pay, or the base is unusable. A
// torn append falls back too: the full rewrite retires the diff file,
// healing the tear.
func (l *Log) appendDiff(cur *Snapshot, snapBytes int) bool {
	if cur == nil || l.diffChain >= diffMaxChain {
		return false
	}
	if l.base == nil {
		base, _, _, err := loadBase(l.dir)
		if err != nil {
			return false
		}
		l.base = base
	}
	if cur.Seq <= l.base.Seq {
		// Nothing new since the last compaction point (an explicit compact
		// of an idle session): the retired WAL holds only stale records.
		return true
	}
	d, err := computeDiff(l.base, cur)
	if err != nil {
		return false
	}
	size := encodedDiffSize(d)
	if size > maxRecordBytes || 2*size >= snapBytes || l.appendDiffFile(d, size) != nil {
		return false
	}
	l.base = cur
	return true
}

// appendDiffFile appends d's frame to the diff file (creating it, magic
// first, when absent) and makes it durable in Fsync mode.
func (l *Log) appendDiffFile(d *diff, size int) error {
	buf := make([]byte, 0, size+len(diffMagic))
	if l.diffSize == 0 {
		buf = append(buf, diffMagic[:]...)
	}
	buf = appendDiffRecord(buf, d)
	f, err := l.fsys.OpenFile(filepath.Join(l.dir, DiffFile), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(buf)
	if err == nil && l.opts.Fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.diffChain++
	l.diffSize += int64(len(buf))
	l.opts.Metrics.countDiffCompaction(len(buf))
	return nil
}

// Close waits for an in-flight compaction and closes the WAL. The log's
// first write failure, if any, is returned.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.broadcastHeadLocked() // wake replication long-polls for a clean exit
	l.mu.Unlock()
	l.compactMu.Lock() // a compaction still finishing lands first
	defer l.compactMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	// Closing under l.mu keeps a racing Append from writing into a closed
	// descriptor; the log is already marked closed, so nothing else can
	// queue behind this.
	//distec:nolint lockio
	err := l.wal.Close()
	if l.poisoned != nil {
		return l.poisoned
	}
	return err
}

// syncDir fsyncs a directory so renames within it are durable; best effort
// (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
