package persist

import (
	"fmt"
	"io"
)

// Replication stream: the wire format a leader uses to ship one session's
// durable state to a tailing follower. A stream is the magic, one flag
// byte, an optional full snapshot (sent when the follower's position
// precedes the leader's effective snapshot — e.g. on first contact or
// after the leader compacted past it), and zero or more WAL records to the
// end of the stream. Both halves reuse the on-disk encodings (ReadSnapshot
// is self-delimiting; records are the WAL's frames, read by the same frame
// reader), so a follower applies exactly what recovery would.

// streamMagic opens every replication stream; the trailing byte is the
// format version.
var streamMagic = [8]byte{'D', 'E', 'C', 'R', 'E', 'P', 'L', 1}

const streamFlagSnapshot = 1

// WriteStream emits snap (when non-nil) and recs as one replication
// stream.
func WriteStream(w io.Writer, snap *Snapshot, recs []Record) error {
	if _, err := w.Write(streamMagic[:]); err != nil {
		return err
	}
	var flags [1]byte
	if snap != nil {
		flags[0] |= streamFlagSnapshot
	}
	if _, err := w.Write(flags[:]); err != nil {
		return err
	}
	if snap != nil {
		if err := WriteSnapshot(w, snap); err != nil {
			return err
		}
	}
	var buf []byte
	for _, rec := range recs {
		buf = appendRecord(buf[:0], rec)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadStream parses one replication stream to its end. Unlike WAL
// scanning, a torn record here is an error, not an end-of-log: the stream
// crossed a network, so truncation means a failed transfer the follower
// must retry, never state to be trusted.
func ReadStream(r io.Reader) (*Snapshot, []Record, error) {
	var header [9]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, nil, fmt.Errorf("persist: replication stream header: %w", err)
	}
	if [8]byte(header[:8]) != streamMagic {
		return nil, nil, fmt.Errorf("persist: bad replication stream magic %q", header[:8])
	}
	var snap *Snapshot
	if header[8]&streamFlagSnapshot != 0 {
		var err error
		if snap, err = ReadSnapshot(r); err != nil {
			return nil, nil, err
		}
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: replication stream: %w", err)
	}
	recs, n, _ := scanFrames(rest, decodeRecord) // a WAL record only tears
	if n != len(rest) {
		return nil, nil, fmt.Errorf("persist: truncated replication stream")
	}
	return snap, recs, nil
}

// ReadState reads a session directory for replication from a follower at
// position from: when the follower precedes the effective snapshot (or
// holds nothing at all — mustSnap, the bootstrap case), the snapshot plus
// every replayable record; otherwise just the records with sequence
// numbers beyond from. Reading races benignly with a concurrent append
// (the scan sees a prefix) — by construction it can never return records
// that fail to chain from what it returns alongside them.
func ReadState(dir string, from uint64, mustSnap bool) (*Snapshot, []Record, error) {
	snap, replay, _, err := ScanDir(dir)
	if err != nil {
		return nil, nil, err
	}
	if mustSnap || from < snap.Seq {
		return snap, replay, nil
	}
	i := 0
	for i < len(replay) && replay[i].Seq <= from {
		i++
	}
	return nil, replay[i:], nil
}
