// Package sessions owns a durable dynamic session's lifecycle for the
// daemon (cmd/edgecolord) and the offline tool (cmd/sessionctl) alike: IsDir
// and List decide which directories are sessions, Create makes one durable
// from birth, Rebuild and Open restore one (snapshot, WAL replay, verify),
// and Compact folds its WAL into a fresh snapshot. Boot recovery,
// rehydration and sessionctl all restore through Rebuild, so the restore
// path cannot diverge between them. Registry is the daemon's live session
// set on top of that pipeline.
//
// Replication lives here too. Registry.Stream is the leader's long-poll
// read of one session, and Follower is the warm standby that tails a
// leader's sessions through a two-method Source (the daemon's over HTTP,
// the tests' in process) and promotes into its own Registry through
// Recover. A new session and a follower's replica come to be through one
// create path, so the session-directory rule cannot diverge either.
package sessions

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/persist"
)

// IsDir reports whether dir holds a session: any snapshot, WAL or diff
// file. A partial directory — say a WAL whose snapshot never made it —
// still counts, so it fails its restore loudly instead of vanishing; an
// empty one does not.
func IsDir(dir string) bool {
	for _, name := range []string{persist.SnapshotFile, persist.WALFile, persist.DiffFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// List returns the names of dataDir's subdirectories that hold a session
// (IsDir), sorted. Under a daemon's data dir the names are session IDs.
func List(dataDir string) ([]string, error) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return nil, err
	}
	ids := []string{}
	for _, e := range entries {
		if e.IsDir() && IsDir(filepath.Join(dataDir, e.Name())) {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}

// Create makes dir a durable session for d: the initial snapshot and an
// empty WAL, with d's journal appending every applied batch from here on.
// On failure the directory is removed, so a failed create leaves nothing
// for recovery or replication to trip over.
func Create(dir string, d *distec.Dynamic, opts persist.Options) (*persist.Log, error) {
	lg, err := create(dir, d.Seq(), d.Snapshot, opts)
	if err != nil {
		return nil, err
	}
	d.SetJournal(journal(lg))
	return lg, nil
}

// create is the one way a session directory comes to be, for a new
// session and a follower's replica alike: whatever dir held is removed,
// then the snapshot writeSnap encodes (the state after batch seq) and an
// empty WAL are written, and the log's head starts at seq so appends chain
// from there. On failure the directory is removed again.
func create(dir string, seq uint64, writeSnap func(io.Writer) error, opts persist.Options) (*persist.Log, error) {
	err := os.RemoveAll(dir)
	var lg *persist.Log
	if err == nil {
		lg, err = persist.CreateLog(dir, writeSnap, opts)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	lg.SetHead(seq)
	return lg, nil
}

// Rebuild restores a session from the effective snapshot (the base with
// its diff chain merged, as persist.OpenLog and persist.ScanDir return it)
// and the records to replay over it under ctx, then verifies the coloring
// independently: a restore that does not verify is never served. A nil
// pool runs repairs on the sequential engine.
func Rebuild(ctx context.Context, snap *persist.Snapshot, recs []persist.Record, pool *distec.Pool) (*distec.Dynamic, error) {
	d, err := distec.NewDynamicFromState(snap, distec.DynamicOptions{Pool: pool})
	if err != nil {
		return nil, err
	}
	if err := distec.ReplayRecords(ctx, d, recs); err != nil {
		return nil, err
	}
	if err := d.Verify(); err != nil {
		return nil, fmt.Errorf("restored coloring invalid: %w", err)
	}
	return d, nil
}

// Open restores the session in dir and installs its journal. Opening the
// log repairs a torn WAL tail and finishes an interrupted compaction; on
// any later failure the log is closed and the files are left as they are.
func Open(ctx context.Context, dir string, pool *distec.Pool, opts persist.Options) (*distec.Dynamic, *persist.Log, error) {
	lg, snap, recs, err := persist.OpenLog(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	d, err := Rebuild(ctx, snap, recs, pool)
	if err != nil {
		lg.Close()
		return nil, nil, err
	}
	d.SetJournal(journal(lg))
	return d, lg, nil
}

// Compact writes d's state as lg's fresh snapshot and retires the WAL,
// synchronously.
func Compact(d *distec.Dynamic, lg *persist.Log) error {
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		return fmt.Errorf("compaction snapshot: %w", err)
	}
	return lg.Compact(buf.Bytes())
}

// journal builds a session's durability hook: append the applied batch to
// the WAL and, once the WAL outgrows the threshold, capture a point-in-time
// snapshot (in memory, under the session lock) and hand the disk work to a
// background compaction.
func journal(lg *persist.Log) distec.JournalFunc {
	// The hook captures its own *Log, not the session: rehydration builds a
	// fresh Dynamic with a fresh hook over a fresh log, so a stale hook can
	// never append to a log that was swapped out from under it.
	// scratch is safe to recycle across batches: the journal runs under the
	// session lock and Append encodes the record before returning.
	var scratch []persist.Update
	return func(b distec.JournalBatch) error {
		if cap(scratch) < len(b.Applied) {
			scratch = make([]persist.Update, len(b.Applied))
		}
		rec := persist.Record{Seq: b.Seq, Updates: scratch[:len(b.Applied)]}
		for i, up := range b.Applied {
			op := persist.OpInsert
			if up.Op == distec.DeleteEdge {
				op = persist.OpDelete
			}
			rec.Updates[i] = persist.Update{Op: op, U: int32(up.U), V: int32(up.V)}
		}
		if err := lg.Append(rec); err != nil {
			return err
		}
		// The batch is durable from here on, so it is acknowledged. A
		// failed rotation is counted and poisons the log: the next
		// batch's Append reports it and retires the session.
		if lg.NeedsCompaction() {
			var buf bytes.Buffer
			if b.Snapshot(&buf) == nil {
				_ = lg.CompactAsync(buf.Bytes())
			}
		}
		return nil
	}
}
