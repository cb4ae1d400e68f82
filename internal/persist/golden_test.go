package persist_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/distec/distec/internal/persist"
)

// goldenState is a 200-edge path session at seq with k extra edges
// appended and the colors of edges 0..k-1 bumped: each step of the
// golden script changes a little, so diff compaction takes the
// differential path.
func goldenState(seq uint64, k int) *persist.Snapshot {
	s := &persist.Snapshot{Algorithm: "vizing", Seed: 9, ConfigPalette: 4, LivePalette: 5, Seq: seq, N: 240}
	for i := 0; i < 200+k; i++ {
		s.EdgeU = append(s.EdgeU, int32(i%239))
		s.EdgeV = append(s.EdgeV, int32(i%239+1))
		s.Active = append(s.Active, i%7 != 3)
		color := int32(i % 4)
		if i < k {
			color = (color + 1) % 4
		}
		if i%7 == 3 {
			color = -1
		}
		s.Colors = append(s.Colors, color)
	}
	return s
}

func goldenRecord(seq uint64) persist.Record {
	return persist.Record{Seq: seq, Updates: []persist.Update{
		{Op: persist.OpInsert, U: int32(seq), V: int32(seq + 100)},
		{Op: persist.OpDelete, U: int32(seq + 1), V: 7},
	}}
}

// TestEncodingsPinned pins the bytes the package writes for a fixed
// script: the snapshot, wal and diff files of one log with differential
// compaction and one without, and the replication stream read back from
// the first. A change to any encoding must change these digests on
// purpose; a refactor must leave them alone.
func TestEncodingsPinned(t *testing.T) {
	encode := func(s *persist.Snapshot) []byte {
		var buf bytes.Buffer
		if err := persist.WriteSnapshot(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	run := func(dir string, diff bool) {
		l, err := persist.CreateLog(dir, func(w io.Writer) error {
			return persist.WriteSnapshot(w, goldenState(0, 0))
		}, persist.Options{DiffCompact: diff})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 6; seq++ {
			if err := l.Append(goldenRecord(seq)); err != nil {
				t.Fatal(err)
			}
			switch seq {
			case 3:
				err = l.Compact(encode(goldenState(3, 1)))
			case 5:
				err = l.CompactAsync(encode(goldenState(5, 2)))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	base := t.TempDir()
	got := map[string]string{}
	digest := func(name string, data []byte) {
		sum := sha256.Sum256(data)
		got[name] = hex.EncodeToString(sum[:])
	}
	for _, mode := range []struct {
		name string
		diff bool
	}{{"diff", true}, {"full", false}} {
		dir := filepath.Join(base, mode.name)
		run(dir, mode.diff)
		files := []string{persist.SnapshotFile, persist.WALFile}
		if mode.diff {
			files = append(files, persist.DiffFile)
		}
		for _, name := range files {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			digest(mode.name+"/"+name, data)
		}
	}
	for _, from := range []uint64{0, 5} {
		snap, recs, err := persist.ReadState(filepath.Join(base, "diff"), from, from == 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := persist.WriteStream(&buf, snap, recs); err != nil {
			t.Fatal(err)
		}
		digest(fmt.Sprintf("stream/from-%d", from), buf.Bytes())
	}
	want := map[string]string{
		"diff/snapshot": "daf18c4d3a37462aa5a65867065f876ba513729b3a3a369b2355f80524b0b825",
		"diff/wal":      "99f25ed0ca01a182060a667bf1e519eaec6823d30405765f70ca413a7a94d4bc",
		"diff/diff":     "f30373642553063a77e316c15223c03afa8cef3f5f187bdfbe05a059420bfe45",
		"full/snapshot": "20f8419907190a0ee746f28bc471f0c9a57a373a74664f75dade8bcf9b8864de",
		"full/wal":      "99f25ed0ca01a182060a667bf1e519eaec6823d30405765f70ca413a7a94d4bc",
		"stream/from-0": "84b46c3e49884ed99d72336b2fd3c77aef1e8d3f9eab4d4c6275cdbd8248ba07",
		"stream/from-5": "0fa1c523288e380441780b04eaeef1e5363e0b53ee2957fd9c8fdbc739719dac",
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: sha256 %s, want %s", name, sum, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("digested %d byte streams, pinned %d", len(got), len(want))
	}
}
