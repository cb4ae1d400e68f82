// Package persist is the durability layer behind dynamic edge-coloring
// sessions: binary point-in-time snapshots of a session's state (graph,
// active-edge overlay, coloring, palette/algorithm header), an optional
// chain of differential snapshots, and an append-only write-ahead log of
// applied update batches, managed per session as a directory of files by
// Log.
//
// The recovery contract is (snapshot ⊕ diff chain) ⊕ WAL: a session's
// state is its most recent snapshot with every newer diff merged over it
// and every WAL record with a later sequence number replayed over that, in
// order. Everything is checksummed (CRC-32C): a corrupt snapshot fails
// recovery loudly, and a torn final record — the footprint of a crash
// mid-append — is detected and discarded, never half-applied. Because
// records carry sequence numbers and recovery skips those the snapshot
// already covers, compaction (land a fresh snapshot or diff, retire the
// old WAL) needs no atomicity between its steps: a crash between them
// merely leaves stale records that the next recovery skips.
//
// Each mechanism exists once. WAL, diff and replication-stream records are
// one frame (u32 length | u32 CRC-32C | payload), written by sealFrame and
// read by scanFrames; scanFile reads every framed file; loadBase merges
// the snapshot with its diff chain for recovery and for differential
// compaction alike; Log.commit does every tmp-and-rename replacement.
// Compact and CompactAsync share rotate and finish, and a compaction that
// starts while the previous one is still finishing waits for it. Every
// unrecoverable write failure poisons the log through poisonLocked, which
// also wakes the WaitHead long polls.
//
// The package is deliberately self-contained (no dependency on the coloring
// machinery): it stores raw edge lists, overlays, and colors. The distec
// package maps sessions to and from these types.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// Format limits: parsers of untrusted files must not let a tiny header
// drive an enormous allocation. These mirror the graph parser's bounds.
const (
	// MaxSnapshotNodes bounds the node count a snapshot may declare.
	MaxSnapshotNodes = 1 << 24
	// MaxSnapshotEdges bounds the edge count a snapshot may declare.
	MaxSnapshotEdges = 1 << 28
	// maxAlgorithmLen bounds the algorithm-name field.
	maxAlgorithmLen = 64
)

// snapshotMagic opens every snapshot file; the trailing byte is the format
// version.
var snapshotMagic = [8]byte{'D', 'E', 'C', 'S', 'N', 'A', 'P', 1}

// castagnoli is the CRC-32C table shared by snapshots and record frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is one session's full durable state at a sequence point.
type Snapshot struct {
	// Algorithm, Seed, and ConfigPalette reproduce the session's configured
	// options ("" and 0 select the defaults, exactly as at creation);
	// LivePalette is the palette actually in force (auto palettes grow with
	// Δ, so it can exceed a zero ConfigPalette's initial value).
	Algorithm     string
	Seed          uint64
	ConfigPalette int
	LivePalette   int
	// Seq is the number of update batches applied to the session when the
	// snapshot was taken; WAL records with sequence numbers beyond it are
	// replayed on recovery, the rest are skipped as already included.
	Seq uint64
	// N is the node count; EdgeU/EdgeV the endpoints of every edge in
	// EdgeID order, tombstoned edges included (EdgeIDs must survive
	// recovery: WAL replay revives tombstones by identity).
	N            int
	EdgeU, EdgeV []int32
	// Active marks the live edges; Colors holds one color per edge, −1 for
	// tombstones.
	Active []bool
	Colors []int32
}

// validate checks the structural invariants shared by writer and reader.
func (s *Snapshot) validate() error {
	if len(s.Algorithm) > maxAlgorithmLen {
		return fmt.Errorf("persist: algorithm name of %d bytes exceeds %d", len(s.Algorithm), maxAlgorithmLen)
	}
	if s.N < 0 || s.N > MaxSnapshotNodes {
		return fmt.Errorf("persist: node count %d outside [0,%d]", s.N, MaxSnapshotNodes)
	}
	m := len(s.EdgeU)
	if m > MaxSnapshotEdges {
		return fmt.Errorf("persist: edge count %d exceeds %d", m, MaxSnapshotEdges)
	}
	if len(s.EdgeV) != m || len(s.Active) != m || len(s.Colors) != m {
		return fmt.Errorf("persist: edge arrays sized %d/%d/%d/%d disagree",
			len(s.EdgeU), len(s.EdgeV), len(s.Active), len(s.Colors))
	}
	if s.ConfigPalette < 0 || s.LivePalette < 1 {
		return fmt.Errorf("persist: palettes config=%d live=%d invalid", s.ConfigPalette, s.LivePalette)
	}
	return nil
}

// crcWriter tees writes through a CRC-32C hash.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	return n, err
}

// WriteSnapshot emits s in the binary snapshot format: magic, header,
// edges, active bitmap, colors, CRC-32C trailer over everything before it.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if err := s.validate(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &crcWriter{w: bw, crc: crc32.New(castagnoli)}
	if _, err := cw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	var scratch [8]byte
	wu64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := cw.Write(scratch[:8])
		return err
	}
	m := len(s.EdgeU)
	if err := wu64(uint64(len(s.Algorithm))); err != nil {
		return err
	}
	if _, err := io.WriteString(cw, s.Algorithm); err != nil {
		return err
	}
	for _, v := range []uint64{s.Seed, uint64(s.ConfigPalette), uint64(s.LivePalette), s.Seq, uint64(s.N), uint64(m)} {
		if err := wu64(v); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 8*1024)
	flush := func() error {
		_, err := cw.Write(buf)
		buf = buf[:0]
		return err
	}
	put32 := func(v int32) error {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		if len(buf) >= cap(buf)-4 {
			return flush()
		}
		return nil
	}
	for e := 0; e < m; e++ {
		if err := put32(s.EdgeU[e]); err != nil {
			return err
		}
		if err := put32(s.EdgeV[e]); err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	bitmap := make([]byte, (m+7)/8)
	for e, a := range s.Active {
		if a {
			bitmap[e/8] |= 1 << (e % 8)
		}
	}
	if _, err := cw.Write(bitmap); err != nil {
		return err
	}
	for e := 0; e < m; e++ {
		if err := put32(s.Colors[e]); err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(scratch[:4], cw.crc.Sum32())
	if _, err := bw.Write(scratch[:4]); err != nil { // trailer: not part of its own checksum
		return err
	}
	return bw.Flush()
}

// ReadSnapshot parses one snapshot from r, verifying the checksum. It reads
// exactly the snapshot's bytes and not beyond, so snapshots compose with
// other stream content. Every malformed input yields an error; none panic.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	// No internal buffering: body reads are already chunked, and an exact
	// read keeps snapshots composable with other stream content.
	cr := &crcReader{r: r, crc: crc32.New(castagnoli)}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("persist: snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("persist: bad snapshot magic %q", magic[:])
	}
	var scratch [8]byte
	ru64 := func(what string) (uint64, error) {
		if _, err := io.ReadFull(cr, scratch[:8]); err != nil {
			return 0, fmt.Errorf("persist: snapshot %s: %w", what, err)
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	algLen, err := ru64("algorithm length")
	if err != nil {
		return nil, err
	}
	if algLen > maxAlgorithmLen {
		return nil, fmt.Errorf("persist: algorithm name of %d bytes exceeds %d", algLen, maxAlgorithmLen)
	}
	alg := make([]byte, algLen)
	if _, err := io.ReadFull(cr, alg); err != nil {
		return nil, fmt.Errorf("persist: snapshot algorithm: %w", err)
	}
	s := &Snapshot{Algorithm: string(alg)}
	var confP, liveP, n64, m64 uint64
	for _, h := range []struct {
		what string
		dst  *uint64
	}{{"seed", &s.Seed}, {"config palette", &confP}, {"live palette", &liveP}, {"seq", &s.Seq}, {"node count", &n64}, {"edge count", &m64}} {
		v, err := ru64(h.what)
		if err != nil {
			return nil, err
		}
		*h.dst = v
	}
	if n64 > MaxSnapshotNodes {
		return nil, fmt.Errorf("persist: node count %d exceeds %d", n64, MaxSnapshotNodes)
	}
	if m64 > MaxSnapshotEdges {
		return nil, fmt.Errorf("persist: edge count %d exceeds %d", m64, MaxSnapshotEdges)
	}
	if confP > 1<<31 || liveP > 1<<31 {
		return nil, fmt.Errorf("persist: palettes config=%d live=%d out of range", confP, liveP)
	}
	s.ConfigPalette, s.LivePalette, s.N = int(confP), int(liveP), int(n64)
	m := int(m64)
	// Body arrays are grown as bytes actually arrive (not allocated up
	// front from the declared count), so a corrupted header inside the size
	// bounds cannot drive a huge allocation before the checksum rejects it.
	buf := make([]byte, 8*1024)
	pair, err := readWords(cr, buf, nil, 2*m)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot edges: %w", err)
	}
	s.EdgeU, s.EdgeV = make([]int32, m), make([]int32, m)
	for e := 0; e < m; e++ {
		s.EdgeU[e], s.EdgeV[e] = pair[2*e], pair[2*e+1]
	}
	s.Active = make([]bool, 0, 1024)
	for read := 0; read < (m+7)/8; {
		chunk := (m+7)/8 - read
		if chunk > len(buf) {
			chunk = len(buf)
		}
		if _, err := io.ReadFull(cr, buf[:chunk]); err != nil {
			return nil, fmt.Errorf("persist: snapshot overlay: %w", err)
		}
		for j := 0; j < chunk; j++ {
			for bit := 0; bit < 8 && len(s.Active) < m; bit++ {
				s.Active = append(s.Active, buf[j]&(1<<bit) != 0)
			}
		}
		read += chunk
	}
	colors, err := readWords(cr, buf, nil, m)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot colors: %w", err)
	}
	s.Colors = colors
	sum := cr.crc.Sum32()
	if _, err := io.ReadFull(cr.r, scratch[:4]); err != nil {
		return nil, fmt.Errorf("persist: snapshot checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(scratch[:4]); got != sum {
		return nil, fmt.Errorf("persist: snapshot checksum mismatch (file %08x, computed %08x)", got, sum)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// crcReader tees reads through a CRC-32C hash.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

// readWords appends count little-endian int32 words onto dst, reading
// through the shared buffer so allocation tracks delivered bytes.
func readWords(r io.Reader, buf []byte, dst []int32, count int) ([]int32, error) {
	for read := 0; read < count; {
		chunk := count - read
		if chunk > len(buf)/4 {
			chunk = len(buf) / 4
		}
		if _, err := io.ReadFull(r, buf[:chunk*4]); err != nil {
			return dst, err
		}
		for j := 0; j < chunk; j++ {
			dst = append(dst, int32(binary.LittleEndian.Uint32(buf[j*4:])))
		}
		read += chunk
	}
	return dst, nil
}
