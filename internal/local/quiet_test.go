package local

import (
	"testing"

	"github.com/distec/distec/internal/graph"
)

// lull is a Sleeper with long quiet stretches: entity i sleeps until round
// gap·(i+1), then sends its index on every port and halts. Its neighbors
// are woken by the message and go back to sleep.
type lull struct {
	v   View
	gap int
}

func (l *lull) at() int { return l.gap * (l.v.Index + 1) }

func (l *lull) Send(r int) []Message {
	if r != l.at() {
		return nil
	}
	msgs := make([]Message, l.v.Degree)
	for p := range msgs {
		msgs[p] = l.v.Index
	}
	return msgs
}

func (l *lull) Receive(r int, _ []Message) bool { return r >= l.at() }
func (l *lull) ReceiveNone(r int) bool          { return r >= l.at() }
func (l *lull) NextWake(int) int                { return l.at() }

// TestQuietRoundsExamineNoEntity drives a lull run round by round and
// reads the engine's visit counter: a round in which no entity is due and
// nothing is sent examines no entity, and a wake-up round examines the
// waking entity and the neighbors it reaches, not every sleeper.
func TestQuietRoundsExamineNoEntity(t *testing.T) {
	const n, gap = 12, 40
	tp := FromGraph(graph.Cycle(n))
	x := NewSeqExec(tp, func(v View) Protocol { return &lull{v: v, gap: gap} }, nil)
	prev := int64(0)
	for r := 1; !x.Round(); r++ {
		got := x.visits - prev
		prev = x.visits
		switch {
		case r == 1:
			if got != n {
				t.Fatalf("round 1 examined %d entities, want all %d", got, n)
			}
		case r%gap == 0:
			if got < 1 || got > 3 {
				t.Fatalf("wake-up round %d examined %d entities, want the waker and its live neighbors", r, got)
			}
		case got != 0:
			t.Fatalf("quiet round %d examined %d entities, want 0", r, got)
		}
	}
	if stats, err := x.Stats(); err != nil || stats.Rounds != n*gap || stats.Messages != 2*n {
		t.Fatalf("stats %+v, err %v; want %d rounds and %d messages", stats, err, n*gap, 2*n)
	}
}

// TestBlockWakeLists files sleepers within the ring, past its horizon and
// past maxRing, moves some of them between lists while they sleep, and
// requires every one to come due exactly in its final wake round.
func TestBlockWakeLists(t *testing.T) {
	const n, horizon = 300, 3 * maxRing
	tp := FromGraph(graph.Path(n))
	b := NewBlock(tp, func(v View) Protocol { return &lull{v: v, gap: 1} }, 0, n)
	clear(b.due)
	b.nDue = 0
	want := make([]int, n)
	for li := range want {
		want[li] = 2 + li*li*li%horizon
		b.sleep(int32(li), want[li], 1)
	}
	for r, pending := 2, n; pending > 0; r++ {
		if r%1000 == 0 && r < horizon {
			// Move every tenth sleeper to a later, nearer or farther wake.
			for li := r / 1000 % 10; li < n; li += 10 {
				if want[li] > r+1 {
					want[li] = r + 2 + (want[li]*31+r)%(2*maxRing)
					b.sleep(int32(li), want[li], r)
				}
			}
		}
		b.Start(r)
		for li, w := range want {
			if due := b.due[li>>6]&(1<<(li&63)) != 0; due != (w == r) {
				t.Fatalf("round %d: entity %d due=%v, its wake round is %d", r, li, due, w)
			} else if due {
				pending--
			}
		}
		clear(b.due)
		b.nDue = 0
	}
	if b.far >= 0 {
		t.Fatalf("entity %d still waits in the overflow list", b.far)
	}
}
