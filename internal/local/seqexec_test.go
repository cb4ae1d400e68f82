package local

import (
	"errors"
	"testing"
	"time"

	"github.com/distec/distec/internal/graph"
)

// TestSeqExecRoundsBudget drives a SeqExec in microscopic time slices and
// demands bit-identical results and stats to the one-call Sequential.Run —
// the property the serving layer's single-lane slicing relies on.
func TestSeqExecRoundsBudget(t *testing.T) {
	tp := EdgeConflict(graph.Cycle(40))
	want := make([]int, tp.N())
	wantStats, err := Sequential.Run(tp, floodFactory(50, want), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, tp.N())
	x := NewSeqExec(tp, floodFactory(50, got), nil)
	slices := 0
	for !x.Rounds(time.Microsecond) {
		slices++
		if slices > 1000 {
			t.Fatal("budget slicing does not terminate")
		}
	}
	gotStats, err := x.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats {
		t.Fatalf("stats %+v, want %+v", gotStats, wantStats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entity %d: %d, want %d", i, got[i], want[i])
		}
	}
	if !x.Rounds(0) || !x.Done() {
		t.Fatal("finished SeqExec must stay finished")
	}
}

func TestSeqExecInterruptAndLimit(t *testing.T) {
	boom := errors.New("deadline")
	polls := 0
	opts := &Options{Interrupt: func() error {
		polls++
		if polls > 3 {
			return boom
		}
		return nil
	}}
	x := NewSeqExec(FromGraph(graph.Cycle(6)), func(v View) Protocol { return &neverHalt{v: v} }, opts)
	for !x.Round() {
	}
	if stats, err := x.Stats(); !errors.Is(err, boom) || stats.Rounds != 3 {
		t.Fatalf("stats %+v, err %v; want 3 rounds then interrupt", stats, err)
	}

	x = NewSeqExec(FromGraph(graph.Cycle(6)), func(v View) Protocol { return &neverHalt{v: v} }, &Options{MaxRounds: 7})
	for !x.Round() {
	}
	if stats, err := x.Stats(); !errors.Is(err, ErrRoundLimit) || stats.Rounds != 7 {
		t.Fatalf("stats %+v, err %v; want 7 rounds then limit", stats, err)
	}
}
