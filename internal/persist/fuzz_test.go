package persist

import (
	"bytes"
	"reflect"
	"testing"
)

// Fuzz targets for the package's decoders of untrusted bytes: a snapshot,
// WAL and diff records (read through the shared frame reader), and the
// replication stream a follower takes from its leader. No input may
// panic, and whatever a decoder accepts must survive re-encoding.

func FuzzReadSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(f, sampleSnapshot(7)))
	f.Add(encodeSnapshot(f, wideSnapshot(3, 41)))
	f.Add(snapshotMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		s, err := ReadSnapshot(r)
		if err != nil {
			return
		}
		enc := encodeSnapshot(t, s)
		if len(enc) != len(data)-r.Len() {
			t.Fatalf("accepted %d snapshot bytes, re-encoded to %d", len(data)-r.Len(), len(enc))
		}
		again, err := ReadSnapshot(bytes.NewReader(enc))
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("re-encoded snapshot reads back as %+v (%v), want %+v", again, err, s)
		}
	})
}

// walSeed is a real WAL body: the frames Log.Append writes.
func walSeed() []byte {
	var buf []byte
	for _, rec := range []Record{
		{Seq: 1, Updates: []Update{{Op: OpInsert, U: 0, V: 1}}},
		{Seq: 2},
		{Seq: 3, Updates: []Update{{Op: OpDelete, U: 0, V: 1}, {Op: OpInsert, U: 2, V: 5}}},
	} {
		buf = appendRecord(buf, rec)
	}
	return buf
}

func FuzzWALRecords(f *testing.F) {
	seed := walSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n, err := scanFrames(data, decodeRecord)
		if err != nil {
			t.Fatalf("WAL records only tear, got %v", err)
		}
		var enc []byte
		for _, rec := range recs {
			enc = appendRecord(enc, rec)
		}
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("%d accepted records re-encode to different bytes", len(recs))
		}
	})
}

func FuzzDiffRecords(f *testing.F) {
	base := wideSnapshot(0, 30)
	cur := cloneSnapshot(base)
	cur.Seq, cur.LivePalette, cur.Colors[4] = 4, 5, 2
	cur.EdgeU, cur.EdgeV = append(cur.EdgeU, 3), append(cur.EdgeV, 9)
	cur.Active, cur.Colors = append(cur.Active, false), append(cur.Colors, -1)
	d, err := computeDiff(base, cur)
	if err != nil {
		f.Fatal(err)
	}
	seed := appendDiffRecord(nil, d)
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		diffs, n, err := scanFrames(data, decodeDiff)
		if err != nil {
			return // declared sizes out of bounds: refused loudly
		}
		var enc []byte
		for _, d := range diffs {
			enc = appendDiffRecord(enc, d)
		}
		again, m, err := scanFrames(enc, decodeDiff)
		if len(enc) != n || err != nil || m != len(enc) || !reflect.DeepEqual(again, diffs) {
			t.Fatalf("%d accepted diff records do not round-trip (%v)", len(diffs), err)
		}
	})
}

func FuzzReadStream(f *testing.F) {
	recs := []Record{
		{Seq: 5, Updates: []Update{{Op: OpInsert, U: 1, V: 3}}},
		{Seq: 6, Updates: []Update{{Op: OpDelete, U: 1, V: 3}}},
	}
	for _, snap := range []*Snapshot{sampleSnapshot(4), nil} {
		var buf bytes.Buffer
		if err := WriteStream(&buf, snap, recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, recs, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteStream(&buf, snap, recs); err != nil {
			t.Fatalf("accepted stream does not re-encode: %v", err)
		}
		snap2, recs2, err := ReadStream(&buf)
		if err != nil || !reflect.DeepEqual(snap2, snap) || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("re-encoded stream reads back differently (%v)", err)
		}
	})
}
