package local

import (
	"testing"

	"github.com/distec/distec/internal/graph"
)

// sleepy is a Sleeper protocol: entity i stays silent until round i+1, then
// announces its index to all neighbors and halts. It exercises skipping,
// waking by schedule, and waking by message arrival.
type sleepy struct {
	v     View
	heard int
	out   []int
}

func (s *sleepy) Send(r int) []Message {
	if r != s.v.Index+1 {
		return nil
	}
	msgs := make([]Message, s.v.Degree)
	for p := range msgs {
		msgs[p] = s.v.Index
	}
	return msgs
}

func (s *sleepy) Receive(r int, inbox []Message) bool {
	for _, m := range inbox {
		if m != nil {
			s.heard++
		}
	}
	return s.finished(r)
}

func (s *sleepy) ReceiveNone(r int) bool { return s.finished(r) }

func (s *sleepy) NextWake(r int) int { return s.v.Index + 1 }

func (s *sleepy) finished(r int) bool {
	if r >= s.v.Index+1 {
		s.out[s.v.Index] = s.heard
		return true
	}
	return false
}

// ticked hides a protocol's SparseReceiver and Sleeper fast paths, so the
// engine calls Receive on it in every round until it halts.
type ticked struct{ Protocol }

// TestSleeperContract runs the sleeper protocol with its fast path and
// with every entity ticked each round: skipping a sleeper is a no-op by
// contract, so results and stats must be identical.
func TestSleeperContract(t *testing.T) {
	g := graph.Complete(9)
	tp := FromGraph(g)
	run := func(wrap func(Protocol) Protocol) ([]int, Stats) {
		out := make([]int, tp.N())
		stats, err := Sequential.Run(tp, func(v View) Protocol { return wrap(&sleepy{v: v, out: out}) }, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}
	sleptOut, sleptStats := run(func(p Protocol) Protocol { return p })
	tickedOut, tickedStats := run(func(p Protocol) Protocol { return ticked{p} })
	if sleptStats != tickedStats {
		t.Fatalf("stats differ: slept %+v vs ticked %+v", sleptStats, tickedStats)
	}
	for i := range sleptOut {
		if sleptOut[i] != tickedOut[i] {
			t.Fatalf("entity %d: slept %d vs ticked %d", i, sleptOut[i], tickedOut[i])
		}
		// Entity i halts in round i+1 having heard announcements of all
		// lower-index neighbors (each announced in an earlier or equal
		// round; equal-round announcements are delivered that round).
		if sleptOut[i] != i {
			t.Fatalf("entity %d heard %d announcements, want %d", i, sleptOut[i], i)
		}
	}
	if sleptStats.Rounds != tp.N() {
		t.Fatalf("rounds = %d, want %d", sleptStats.Rounds, tp.N())
	}
}

// A Sleeper must still be woken early by an incoming message: entity 0
// broadcasts in round 1; all sleepers (wake round 10) must count it then,
// not at wake time.
type lateSleeper struct {
	v      View
	wokeAt int
	out    []int
}

func (l *lateSleeper) Send(r int) []Message {
	if l.v.Index == 0 && r == 1 {
		msgs := make([]Message, l.v.Degree)
		for p := range msgs {
			msgs[p] = 99
		}
		return msgs
	}
	return nil
}

func (l *lateSleeper) Receive(r int, inbox []Message) bool {
	got := false
	for _, m := range inbox {
		if m != nil {
			got = true
		}
	}
	if got && l.wokeAt == 0 {
		l.wokeAt = r
	}
	return l.finished(r)
}

func (l *lateSleeper) ReceiveNone(r int) bool { return l.finished(r) }
func (l *lateSleeper) NextWake(r int) int     { return 10 }

func (l *lateSleeper) finished(r int) bool {
	if r >= 10 || (l.v.Index == 0 && r >= 1) {
		l.out[l.v.Index] = l.wokeAt
		return true
	}
	return false
}

func TestSleeperWokenByMessage(t *testing.T) {
	g := graph.Star(6) // center 0 broadcasts round 1
	tp := FromGraph(g)
	out := make([]int, tp.N())
	if _, err := Sequential.Run(tp, func(v View) Protocol { return &lateSleeper{v: v, out: out} }, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tp.N(); i++ {
		if out[i] != 1 {
			t.Fatalf("leaf %d woke at round %d, want 1 (message must override sleep)", i, out[i])
		}
	}
}
