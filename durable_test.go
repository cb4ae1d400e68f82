package distec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/distec/distec/internal/bench"
	"github.com/distec/distec/internal/persist"
)

// absentEdges returns count node pairs that are not edges of g, in
// deterministic order.
func absentEdges(t *testing.T, g *Graph, count int) [][2]int {
	t.Helper()
	var out [][2]int
	for u := 0; u < g.N() && len(out) < count; u++ {
		for v := u + 1; v < g.N() && len(out) < count; v++ {
			if _, ok := g.HasEdge(u, v); !ok {
				out = append(out, [2]int{u, v})
			}
		}
	}
	if len(out) < count {
		t.Fatalf("graph too dense: only %d absent pairs", len(out))
	}
	return out
}

// TestDynamicSnapshotRoundTrip snapshots live sessions mid-stream across
// the palette regimes and restores them: state, sequence number, and future
// behavior must all survive the round trip.
func TestDynamicSnapshotRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		opts func(g *Graph) Options
	}{
		{"auto-2d-1", func(*Graph) Options { return Options{} }},
		{"vizing-auto-d+1", func(*Graph) Options { return Options{Algorithm: Vizing} }},
		{"fixed-tight", func(g *Graph) Options { return Options{Palette: g.MaxEdgeDegree() + 2} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := RandomRegular(32, 4, 5)
			opts := tc.opts(g)
			d, err := NewDynamic(g, DynamicOptions{Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			ops := bench.ChurnCapped(g, 60, g.MaxDegree(), 11)
			for _, op := range ops {
				var err error
				if op.Delete {
					err = d.Delete(op.U, op.V)
				} else {
					_, _, err = d.Insert(op.U, op.V)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := d.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := NewDynamicFromSnapshot(bytes.NewReader(buf.Bytes()), DynamicOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Verify(); err != nil {
				t.Fatalf("restored session: %v", err)
			}
			if r.Seq() != d.Seq() {
				t.Fatalf("seq %d, want %d", r.Seq(), d.Seq())
			}
			if r.Palette() != d.Palette() || r.Edges() != d.Edges() {
				t.Fatalf("palette/edges %d/%d, want %d/%d", r.Palette(), r.Edges(), d.Palette(), d.Edges())
			}
			want, got := d.Colors(), r.Colors()
			for e := range want {
				if want[e] != got[e] {
					t.Fatalf("edge %d: color %d, want %d", e, got[e], want[e])
				}
			}
			// Both sessions must evolve identically from here (deterministic
			// solvers, identical state and degrees).
			more := bench.ChurnCapped(g, 40, g.MaxDegree(), 13)
			for i, op := range more {
				if op.Delete {
					e1, e2 := d.Delete(op.U, op.V), r.Delete(op.U, op.V)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("op %d diverged: %v vs %v", i, e1, e2)
					}
				} else {
					id1, c1, e1 := d.Insert(op.U, op.V)
					id2, c2, e2 := r.Insert(op.U, op.V)
					if (e1 == nil) != (e2 == nil) || id1 != id2 || c1 != c2 {
						t.Fatalf("op %d diverged: (%d,%d,%v) vs (%d,%d,%v)", i, id1, c1, e1, id2, c2, e2)
					}
				}
			}
			if err := r.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDynamicSnapshotRejectsCorrupt flips one byte anywhere in a snapshot:
// restoration must fail, never yield a silently wrong session.
func TestDynamicSnapshotRejectsCorrupt(t *testing.T) {
	g := Cycle(10)
	d, err := NewDynamic(g, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, i := range []int{0, 8, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x10
		if _, err := NewDynamicFromSnapshot(bytes.NewReader(bad), DynamicOptions{}); err == nil {
			t.Fatalf("byte %d: corrupt snapshot accepted", i)
		}
	}
	if _, err := NewDynamicFromSnapshot(bytes.NewReader(data[:len(data)-3]), DynamicOptions{}); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestApplyBatchAppliedPrefix is the regression test for the partial-
// failure contract: a mid-batch failure must return the results of exactly
// the applied prefix, with the coloring reflecting it and nothing after it.
func TestApplyBatchAppliedPrefix(t *testing.T) {
	run := func(t *testing.T, pool *Pool) {
		g := RandomRegular(32, 4, 5)
		d, err := NewDynamic(g, DynamicOptions{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		fresh := absentEdges(t, g, 2)
		u0, v0 := g.Endpoints(0)
		batch := []Update{
			{Op: InsertEdge, U: fresh[0][0], V: fresh[0][1]},
			{Op: DeleteEdge, U: u0, V: v0},
			{Op: InsertEdge, U: u0, V: v0},                   // fails: just-deleted then re-inserted is fine...
			{Op: InsertEdge, U: fresh[0][0], V: fresh[0][1]}, // ...this duplicate fails
			{Op: InsertEdge, U: fresh[1][0], V: fresh[1][1]}, // never reached
		}
		results, err := d.ApplyBatch(context.Background(), batch)
		if err == nil {
			t.Fatal("duplicate insert did not fail the batch")
		}
		if len(results) != 3 {
			t.Fatalf("applied prefix of %d results, want 3", len(results))
		}
		if d.Seq() != 1 {
			t.Fatalf("seq %d after one partially-applied batch, want 1", d.Seq())
		}
		// The coloring reflects exactly the prefix: fresh[0] inserted, edge
		// 0 deleted then revived, fresh[1] untouched.
		if _, ok := g.HasEdge(fresh[1][0], fresh[1][1]); ok {
			t.Fatal("update after the failure point was applied")
		}
		if d.Color(results[0].Edge) < 0 {
			t.Fatal("prefix insert lost its color")
		}
		if d.Color(0) != results[2].Color {
			t.Fatalf("revived edge colored %d, want %d", d.Color(0), results[2].Color)
		}
		if err := d.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("one-shot", func(t *testing.T) { run(t, nil) })
	t.Run("pool", func(t *testing.T) {
		pool := NewPool(PoolOptions{Workers: 2})
		defer pool.Close()
		run(t, pool)
	})
	t.Run("admission-failure-applies-nothing", func(t *testing.T) {
		pool := NewPool(PoolOptions{Workers: 1})
		g := Cycle(8)
		d, err := NewDynamic(g, DynamicOptions{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		pool.Close()
		results, err := d.ApplyBatch(context.Background(), []Update{{Op: InsertEdge, U: 0, V: 2}})
		if !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("err = %v, want ErrPoolClosed", err)
		}
		if results != nil {
			t.Fatalf("admission failure returned results: %v", results)
		}
		if d.Seq() != 0 {
			t.Fatalf("seq %d, want 0", d.Seq())
		}
	})
}

// TestReplayRecordsSequenceContract pins the replay contract every restore
// path shares: each record must carry the session's next sequence number
// and advance the session by exactly one batch.
func TestReplayRecordsSequenceContract(t *testing.T) {
	g := Cycle(8)
	fresh := absentEdges(t, g, 2)
	insert := func(seq uint64, e [2]int) persist.Record {
		return persist.Record{Seq: seq, Updates: []persist.Update{{Op: persist.OpInsert, U: int32(e[0]), V: int32(e[1])}}}
	}
	for _, c := range []struct {
		name    string
		records []persist.Record
		wantSeq uint64 // 0: replay must fail
	}{
		{"contiguous", []persist.Record{insert(1, fresh[0]), insert(2, fresh[1])}, 2},
		{"gap", []persist.Record{insert(2, fresh[0])}, 0},
		{"repeat", []persist.Record{insert(1, fresh[0]), insert(1, fresh[1])}, 0},
		{"empty", []persist.Record{{Seq: 1}}, 0},
	} {
		d, err := NewDynamic(g, DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		err = ReplayRecords(context.Background(), d, c.records)
		switch {
		case c.wantSeq == 0 && err == nil:
			t.Errorf("%s: replay accepted, session at seq %d", c.name, d.Seq())
		case c.wantSeq != 0 && (err != nil || d.Seq() != c.wantSeq):
			t.Errorf("%s: replay to seq %d, err %v; want seq %d", c.name, d.Seq(), err, c.wantSeq)
		}
	}
}

// TestDynamicJournal pins the journal contract: one call per applied batch,
// sequence numbers contiguous, Applied exactly the applied prefix, the
// snapshot capture consistent with the batch, and journal failures surfaced
// as ErrJournal without losing the in-memory batch.
func TestDynamicJournal(t *testing.T) {
	g := RandomRegular(32, 4, 5)
	d, err := NewDynamic(g, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		seq     uint64
		applied []Update
		snap    []byte
	}
	var journal []entry
	d.SetJournal(func(b JournalBatch) error {
		var buf bytes.Buffer
		if err := b.Snapshot(&buf); err != nil {
			return err
		}
		journal = append(journal, entry{b.Seq, append([]Update(nil), b.Applied...), buf.Bytes()})
		return nil
	})
	fresh := absentEdges(t, g, 4)
	ok := []Update{
		{Op: InsertEdge, U: fresh[0][0], V: fresh[0][1]},
		{Op: InsertEdge, U: fresh[1][0], V: fresh[1][1]},
	}
	if _, err := d.ApplyBatch(context.Background(), ok); err != nil {
		t.Fatal(err)
	}
	failing := []Update{
		{Op: InsertEdge, U: fresh[2][0], V: fresh[2][1]},
		{Op: InsertEdge, U: fresh[0][0], V: fresh[0][1]}, // duplicate: fails
	}
	if _, err := d.ApplyBatch(context.Background(), failing); err == nil {
		t.Fatal("duplicate insert did not fail")
	}
	if len(journal) != 2 {
		t.Fatalf("%d journal entries, want 2", len(journal))
	}
	if journal[0].seq != 1 || journal[1].seq != 2 {
		t.Fatalf("journal seqs %d,%d", journal[0].seq, journal[1].seq)
	}
	if len(journal[0].applied) != 2 || len(journal[1].applied) != 1 {
		t.Fatalf("journal applied lengths %d,%d, want 2,1 (exact prefix)", len(journal[0].applied), len(journal[1].applied))
	}
	if journal[1].applied[0] != failing[0] {
		t.Fatalf("journaled prefix %+v, want %+v", journal[1].applied[0], failing[0])
	}
	// The captured snapshot is the state with exactly that batch applied:
	// restoring the second entry must reproduce the live session.
	r, err := NewDynamicFromSnapshot(bytes.NewReader(journal[1].snap), DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq() != 2 {
		t.Fatalf("restored seq %d, want 2", r.Seq())
	}
	want, got := d.Colors(), r.Colors()
	for e := range want {
		if want[e] != got[e] {
			t.Fatalf("edge %d: restored color %d, want %d", e, got[e], want[e])
		}
	}

	// A failing journal surfaces as ErrJournal; the batch stays applied.
	d.SetJournal(func(JournalBatch) error { return fmt.Errorf("disk full") })
	results, err := d.ApplyBatch(context.Background(), []Update{{Op: InsertEdge, U: fresh[3][0], V: fresh[3][1]}})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("err = %v, want ErrJournal", err)
	}
	if len(results) != 1 || d.Color(results[0].Edge) != results[0].Color {
		t.Fatalf("journal failure lost the applied batch: %v", results)
	}
	if d.Seq() != 3 {
		t.Fatalf("seq %d, want 3", d.Seq())
	}
}

// TestDynamicClose is the regression test for the delete/update race: a
// closed session fails late batches with ErrSessionClosed and stops an
// in-flight batch at its next update boundary, and never journals after
// close.
func TestDynamicClose(t *testing.T) {
	t.Run("late-batch", func(t *testing.T) {
		g := Cycle(8)
		d, err := NewDynamic(g, DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		journaled := 0
		d.SetJournal(func(JournalBatch) error { journaled++; return nil })
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		results, err := d.ApplyBatch(context.Background(), []Update{{Op: InsertEdge, U: 0, V: 2}})
		if !errors.Is(err, ErrSessionClosed) || results != nil {
			t.Fatalf("late batch: results=%v err=%v", results, err)
		}
		if _, _, err := d.Insert(0, 2); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("late insert: %v", err)
		}
		if err := d.Delete(0, 1); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("late delete: %v", err)
		}
		if journaled != 0 {
			t.Fatalf("closed session journaled %d batches", journaled)
		}
		// Read accessors keep working; Close is idempotent.
		if err := d.Verify(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("in-flight-batch", func(t *testing.T) {
		g := RandomRegular(1000, 8, 3)
		d, err := NewDynamic(g, DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		journaled := 0
		d.SetJournal(func(JournalBatch) error { journaled++; return nil })
		ops := bench.Churn(g, 200000, 7)
		batch := make([]Update, len(ops))
		for i, op := range ops {
			batch[i] = Update{Op: InsertEdge, U: op.U, V: op.V}
			if op.Delete {
				batch[i].Op = DeleteEdge
			}
		}
		done := make(chan struct{})
		var results []UpdateResult
		var apErr error
		go func() {
			defer close(done)
			results, apErr = d.ApplyBatch(context.Background(), batch)
		}()
		d.Close() // races with the batch; both outcomes below are legal
		<-done
		if apErr == nil {
			if len(results) != len(batch) {
				t.Fatalf("clean finish with %d/%d results", len(results), len(batch))
			}
		} else {
			if !errors.Is(apErr, ErrSessionClosed) {
				t.Fatalf("err = %v, want ErrSessionClosed", apErr)
			}
			if len(results) >= len(batch) {
				t.Fatalf("all %d updates applied yet batch failed", len(results))
			}
			if journaled != 0 {
				t.Fatal("interrupted batch was journaled")
			}
		}
		// Whatever the race outcome, the maintained coloring is proper.
		if err := d.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}
