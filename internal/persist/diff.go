package persist

import (
	"encoding/binary"
	"fmt"
)

// Differential snapshots: instead of rewriting the whole snapshot at every
// compaction, a compaction may append one *diff record* — the overlay delta
// since the last persisted state — to a "diff" file beside the snapshot.
// The effective snapshot is then snapshot ⊕ diffs (applied in order), and
// the recovery contract becomes (snapshot ⊕ diffs) ⊕ seq-filtered WAL.
//
// Diff records are frames, written and read by the same code as WAL
// records (u32 length | u32 CRC-32C | payload), so the crash calculus is
// identical: a torn final diff record is discarded, and because wal.prev is
// only removed after the diff record is durable, the records it summarized
// are still replayable. Stale diff
// records (seq at or below the snapshot's — the footprint of a crash
// between a full compaction's snapshot rename and its diff-file removal)
// are skipped exactly like stale WAL records.
//
// Because a session's graph is append-only (EdgeIDs are stable and
// tombstones persist), a diff is small: the edges appended since the base
// state, the (EdgeID, color, active) triples that changed, and the new
// sequence number and live palette.

// diffMagic opens every diff file; the trailing byte is the format version.
var diffMagic = [8]byte{'D', 'E', 'C', 'D', 'I', 'F', 'F', 1}

// diff payload wire format, inside the record frame:
//
//	u64 seq | u32 livePalette | u32 prevM | u32 newM
//	u32 nNew     | nNew × (u32 u, u32 v, u32 color, u8 active)
//	u32 nChanged | nChanged × (u32 edgeID, u32 color, u8 active)
const (
	diffPayloadFixed = 24
	diffNewBytes     = 13
	diffChangedBytes = 9
)

// diff is one decoded diff record: the delta from a base state at prevM
// edges to the state at seq with newM edges.
type diff struct {
	seq         uint64
	livePalette int
	prevM, newM int
	// appended edges, in EdgeID order starting at prevM
	newU, newV, newColors []int32
	newActive             []bool
	// existing edges whose color or overlay bit changed
	chID, chColors []int32
	chActive       []bool
}

// computeDiff derives the delta between base and cur, which must describe
// the same session (same node count, same edge prefix) with cur at or past
// base. Any structural disagreement is an error — the caller falls back to
// a full snapshot.
func computeDiff(base, cur *Snapshot) (*diff, error) {
	if cur.N != base.N {
		return nil, fmt.Errorf("persist: diff base has %d nodes, current %d", base.N, cur.N)
	}
	if cur.Seq < base.Seq {
		return nil, fmt.Errorf("persist: diff base at seq %d is ahead of current %d", base.Seq, cur.Seq)
	}
	prevM, newM := len(base.EdgeU), len(cur.EdgeU)
	if newM < prevM {
		return nil, fmt.Errorf("persist: diff base has %d edges, current %d (graphs are append-only)", prevM, newM)
	}
	d := &diff{seq: cur.Seq, livePalette: cur.LivePalette, prevM: prevM, newM: newM}
	for e := 0; e < prevM; e++ {
		if cur.EdgeU[e] != base.EdgeU[e] || cur.EdgeV[e] != base.EdgeV[e] {
			return nil, fmt.Errorf("persist: diff base edge %d is {%d,%d}, current {%d,%d}",
				e, base.EdgeU[e], base.EdgeV[e], cur.EdgeU[e], cur.EdgeV[e])
		}
		if cur.Colors[e] != base.Colors[e] || cur.Active[e] != base.Active[e] {
			d.chID = append(d.chID, int32(e))
			d.chColors = append(d.chColors, cur.Colors[e])
			d.chActive = append(d.chActive, cur.Active[e])
		}
	}
	for e := prevM; e < newM; e++ {
		d.newU = append(d.newU, cur.EdgeU[e])
		d.newV = append(d.newV, cur.EdgeV[e])
		d.newColors = append(d.newColors, cur.Colors[e])
		d.newActive = append(d.newActive, cur.Active[e])
	}
	return d, nil
}

// applyDiff merges d into s in place. The diff must chain: its prevM must
// equal s's current edge count and its seq must advance past s's.
func applyDiff(s *Snapshot, d *diff) error {
	if d.seq <= s.Seq {
		return fmt.Errorf("persist: diff at seq %d does not advance snapshot seq %d", d.seq, s.Seq)
	}
	if d.prevM != len(s.EdgeU) {
		return fmt.Errorf("persist: diff chains from %d edges, snapshot holds %d", d.prevM, len(s.EdgeU))
	}
	if d.newM != d.prevM+len(d.newU) {
		return fmt.Errorf("persist: diff declares %d edges but appends %d to %d", d.newM, len(d.newU), d.prevM)
	}
	for i, id := range d.chID {
		if int(id) >= d.prevM {
			return fmt.Errorf("persist: diff changes edge %d beyond base %d", id, d.prevM)
		}
		s.Colors[id] = d.chColors[i]
		s.Active[id] = d.chActive[i]
	}
	s.EdgeU = append(s.EdgeU, d.newU...)
	s.EdgeV = append(s.EdgeV, d.newV...)
	s.Colors = append(s.Colors, d.newColors...)
	s.Active = append(s.Active, d.newActive...)
	s.Seq = d.seq
	s.LivePalette = d.livePalette
	return nil
}

// encodedDiffSize returns the framed size of d on disk. The changed-edge
// count is a fourth trailing u32 outside diffPayloadFixed because it sits
// after the variable new-edge section.
func encodedDiffSize(d *diff) int {
	return recordHeaderBytes + diffPayloadFixed + diffNewBytes*len(d.newU) + 4 + diffChangedBytes*len(d.chID)
}

// appendDiffRecord encodes d onto buf as one frame and returns the
// extended slice.
func appendDiffRecord(buf []byte, d *diff) []byte {
	le := binary.LittleEndian
	start := len(buf)
	buf = le.AppendUint64(buf, 0) // frame header, sealed below
	buf = le.AppendUint64(buf, d.seq)
	buf = le.AppendUint32(buf, uint32(d.livePalette))
	buf = le.AppendUint32(buf, uint32(d.prevM))
	buf = le.AppendUint32(buf, uint32(d.newM))
	buf = le.AppendUint32(buf, uint32(len(d.newU)))
	for i := range d.newU {
		buf = le.AppendUint32(buf, uint32(d.newU[i]))
		buf = le.AppendUint32(buf, uint32(d.newV[i]))
		buf = appendColor(buf, d.newColors[i], d.newActive[i])
	}
	buf = le.AppendUint32(buf, uint32(len(d.chID)))
	for i := range d.chID {
		buf = le.AppendUint32(buf, uint32(d.chID[i]))
		buf = appendColor(buf, d.chColors[i], d.chActive[i])
	}
	return sealFrame(buf, start)
}

// appendColor encodes one edge's color and overlay bit.
func appendColor(buf []byte, color int32, active bool) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(color))
	if active {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// decodeDiff parses one diff record payload. Counts that disagree with the
// payload's length are a tear; edge counts beyond MaxSnapshotEdges are an
// error.
func decodeDiff(p []byte) (*diff, error) {
	le := binary.LittleEndian
	if len(p) < diffPayloadFixed+4 {
		return nil, errTorn
	}
	d := &diff{
		seq:         le.Uint64(p),
		livePalette: int(le.Uint32(p[8:])),
		prevM:       int(le.Uint32(p[12:])),
		newM:        int(le.Uint32(p[16:])),
	}
	if d.prevM > MaxSnapshotEdges || d.newM > MaxSnapshotEdges || d.livePalette > 1<<31 {
		return nil, fmt.Errorf("persist: diff record bounds exceeded (prevM=%d newM=%d)", d.prevM, d.newM)
	}
	// The changed-edge count sits after the variable new-edge section.
	mid := uint64(diffPayloadFixed) + uint64(le.Uint32(p[20:]))*diffNewBytes
	if mid+4 > uint64(len(p)) || mid+4+uint64(le.Uint32(p[mid:]))*diffChangedBytes != uint64(len(p)) {
		return nil, errTorn
	}
	for e := p[diffPayloadFixed:mid]; len(e) > 0; e = e[diffNewBytes:] {
		d.newU = append(d.newU, int32(le.Uint32(e)))
		d.newV = append(d.newV, int32(le.Uint32(e[4:])))
		d.newColors = append(d.newColors, int32(le.Uint32(e[8:])))
		d.newActive = append(d.newActive, e[12] != 0)
	}
	for e := p[mid+4:]; len(e) > 0; e = e[diffChangedBytes:] {
		d.chID = append(d.chID, int32(le.Uint32(e)))
		d.chColors = append(d.chColors, int32(le.Uint32(e[4:])))
		d.chActive = append(d.chActive, e[8] != 0)
	}
	return d, nil
}
