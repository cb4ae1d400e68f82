package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// walMagic opens every WAL file; the trailing byte is the format version.
var walMagic = [8]byte{'D', 'E', 'C', 'W', 'A', 'L', 0, 1}

// maxRecordBytes bounds one record's payload; a length prefix beyond it
// is treated as corruption, not an allocation request. It comfortably holds
// the largest update batch any caller submits (the daemon caps batches at
// 10⁵ updates ≈ 0.9 MB).
const maxRecordBytes = 1 << 26

// Op is one update's kind in a WAL record.
type Op uint8

const (
	// OpInsert adds the active edge {U, V}.
	OpInsert Op = 1
	// OpDelete removes the active edge {U, V}.
	OpDelete Op = 2
)

// Update is one edge update of a WAL record.
type Update struct {
	Op   Op
	U, V int32
}

// Record is one applied update batch: Seq is its 1-based position in the
// session's applied-batch sequence (contiguous, no gaps), Updates the batch
// body — exactly the applied prefix when the originating batch failed
// midway, so replay reproduces precisely the state the session reached.
type Record struct {
	Seq     uint64
	Updates []Update
}

// Every WAL, diff and replication-stream record is one frame, and only
// the payload codecs differ by kind:
//
//	frame          = u32 payload length | u32 CRC-32C(payload) | payload
//	record payload = u64 seq | u32 count | count × (u8 op, u32 u, u32 v)
//
// A framed file (wal, wal.prev, diff) is its 8-byte magic followed by
// frames.
const (
	recordHeaderBytes  = 8
	recordPayloadFixed = 12
	updateBytes        = 9
)

// appendRecord encodes rec onto buf as one frame and returns the extended
// slice. A recycled buffer (Log.enc) grows only until it holds the largest
// record, so the hot append path does not allocate.
//
//distec:hotpath
func appendRecord(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // frame header, sealed below
	buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Updates)))
	for _, up := range rec.Updates {
		buf = append(buf, byte(up.Op))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(up.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(up.V))
	}
	return sealFrame(buf, start)
}

// sealFrame is the frame writer: the frame starts at buf[start] with a
// reserved header and its payload runs to the end of buf; sealFrame fills
// the header in with the payload's length and checksum.
//
//distec:hotpath
func sealFrame(buf []byte, start int) []byte {
	payload := buf[start+recordHeaderBytes:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// errTorn marks the end of the valid prefix of a run of frames: a payload
// whose counts disagree with its length. A crash tears at most the final
// record; everything after a tear is untrusted by construction.
var errTorn = errors.New("persist: torn record")

// scanFrames is the frame reader: it decodes the frames at the start of
// data in order, up to the end of data or the first tear — a frame cut
// short, one longer than maxRecordBytes or failing its checksum, or a
// payload decode rejects with errTorn. It returns the decoded frames and
// the length of the prefix they cover, which is len(data) when the frames
// end cleanly. Any other decode error is returned as is.
func scanFrames[T any](data []byte, decode func([]byte) (T, error)) ([]T, int, error) {
	var out []T
	off := 0
	for len(data)-off >= recordHeaderBytes {
		n := binary.LittleEndian.Uint32(data[off:])
		if n > maxRecordBytes || int(n) > len(data)-off-recordHeaderBytes {
			break
		}
		end := off + recordHeaderBytes + int(n)
		payload := data[off+recordHeaderBytes : end]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		v, err := decode(payload)
		if errors.Is(err, errTorn) {
			break
		}
		if err != nil {
			return out, off, err
		}
		out, off = append(out, v), end
	}
	return out, off, nil
}

// decodeRecord parses one WAL record payload.
func decodeRecord(p []byte) (Record, error) {
	if len(p) < recordPayloadFixed {
		return Record{}, errTorn
	}
	count := binary.LittleEndian.Uint32(p[8:])
	if uint64(recordPayloadFixed)+uint64(count)*updateBytes != uint64(len(p)) {
		return Record{}, errTorn
	}
	rec := Record{Seq: binary.LittleEndian.Uint64(p), Updates: make([]Update, count)}
	for i := range rec.Updates {
		u := p[recordPayloadFixed+i*updateBytes:]
		rec.Updates[i] = Update{
			Op: Op(u[0]),
			U:  int32(binary.LittleEndian.Uint32(u[1:])),
			V:  int32(binary.LittleEndian.Uint32(u[5:])),
		}
	}
	return rec, nil
}

// fileScan is one framed file's parse: the records of its valid prefix,
// whether the file ends cleanly after them, and the file's size.
type fileScan[T any] struct {
	items []T
	clean bool
	size  int64
}

// scanFile reads the framed file at path (wal, wal.prev or diff): its
// magic, then frames up to the first tear. A missing file holds nothing
// and tears nothing; one too short for its magic is a torn empty file (the
// crash hit its very first write). A wrong magic, or a payload decode
// refuses outright, is an error.
func scanFile[T any](path string, magic [8]byte, decode func([]byte) (T, error)) (fileScan[T], error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return fileScan[T]{clean: true}, nil
	}
	if err != nil {
		return fileScan[T]{}, fmt.Errorf("persist: %w", err)
	}
	sc := fileScan[T]{size: int64(len(data))}
	if len(data) < len(magic) {
		return sc, nil
	}
	if [8]byte(data) != magic {
		return sc, fmt.Errorf("persist: %s: bad magic %q", path, data[:len(magic)])
	}
	items, n, err := scanFrames(data[len(magic):], decode)
	if err != nil {
		return sc, fmt.Errorf("persist: %s: %w", path, err)
	}
	sc.items, sc.clean = items, len(magic)+n == len(data)
	return sc, nil
}
