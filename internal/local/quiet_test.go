package local

import (
	"fmt"
	"testing"
	"time"

	"github.com/distec/distec/internal/graph"
)

// lull is a Sleeper with long quiet stretches: entity i sleeps until round
// gap·(i+1), then broadcasts its index and halts. Its neighbors are woken
// by the broadcast and go back to sleep.
type lull struct {
	v   View
	gap int
}

func (l *lull) at() int { return l.gap * (l.v.Index + 1) }

func (l *lull) Send(r int) []Message                      { return SendPerPort(l, r, l.v.Degree) }
func (l *lull) Receive(r int, inbox []Message) bool       { return ReceivePerPort(l, r, inbox) }
func (l *lull) Broadcast(r int) (int, bool)               { return l.v.Index, r == l.at() }
func (l *lull) ReceiveBroadcast(r int, _ Broadcasts) bool { return r >= l.at() }
func (l *lull) ReceiveNone(r int) bool                    { return r >= l.at() }
func (l *lull) NextWake(int) int                          { return l.at() }

// TestQuietRoundsExamineNoEntity drives a lull run on one block round by
// round, on the broadcast path and with it hidden, and reads the visit
// counter: a round in which no entity is due and nothing is sent examines
// no entity, and a wake-up round examines the waking entity and the
// neighbors it reaches, not every sleeper.
func TestQuietRoundsExamineNoEntity(t *testing.T) {
	for _, perPort := range []bool{false, true} {
		checkQuietRounds(t, 1, perPort)
	}
}

// TestShardedQuietRoundsExamineNoEntity is the same check over three
// shards: quiet rounds examine no entity in any shard, and a wake-up
// reaches across shard boundaries without visiting the other sleepers.
func TestShardedQuietRoundsExamineNoEntity(t *testing.T) {
	for _, perPort := range []bool{false, true} {
		checkQuietRounds(t, 3, perPort)
	}
}

func checkQuietRounds(t *testing.T, shards int, perPort bool) {
	t.Helper()
	const n, gap = 12, 40
	tp := FromGraph(graph.Cycle(n))
	name := fmt.Sprintf("shards=%d per-port=%v", shards, perPort)
	x := Prepare(tp, func(v View) Protocol {
		l := &lull{v: v, gap: gap}
		if perPort {
			return struct {
				Protocol
				Sleeper
			}{l, l}
		}
		return l
	}, nil, shards, nil)
	visits := func() (sum int64) {
		for _, w := range x.workers {
			sum += w.visits
		}
		return sum
	}
	prev := int64(0)
	for r := 1; !x.Round(nil); r++ {
		got := visits() - prev
		prev += got
		switch {
		case r == 1:
			if got != n {
				t.Fatalf("%s: round 1 examined %d entities, want all %d", name, got, n)
			}
		case r%gap == 0:
			if got < 1 || got > 3 {
				t.Fatalf("%s: wake-up round %d examined %d entities, want the waker and its live neighbors", name, r, got)
			}
		case got != 0:
			t.Fatalf("%s: quiet round %d examined %d entities, want 0", name, r, got)
		}
	}
	if stats, err := x.Stats(); err != nil || stats.Rounds != n*gap || stats.Messages != 2*n {
		t.Fatalf("%s: stats %+v, err %v; want %d rounds and %d messages", name, stats, err, n*gap, 2*n)
	}
}

// BenchmarkQuietRounds measures the cost of a round in which almost
// nothing happens: 1000 lull entities on a cycle, each waking once over
// 64 000 rounds, on the sequential engine and the sharded engine with one
// (inline) and two shards. It reports ns/round.
func BenchmarkQuietRounds(b *testing.B) {
	tp := FromGraph(graph.Cycle(1000))
	f := func(v View) Protocol { return &lull{v: v, gap: 64} }
	for _, eng := range []Engine{Sequential, Sharded(1), Sharded(2)} {
		b.Run(eng.Name(), func(b *testing.B) {
			rounds := 0
			start := time.Now()
			for i := 0; i < b.N; i++ {
				stats, err := eng.Run(tp, f, nil)
				if err != nil {
					b.Fatal(err)
				}
				rounds += stats.Rounds
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(rounds), "ns/round")
		})
	}
}

// TestBlockWakeLists files sleepers within the ring, past its horizon and
// past maxRing, moves some of them between lists while they sleep, and
// requires every one to come due exactly in its final wake round.
func TestBlockWakeLists(t *testing.T) {
	const n, horizon = 300, 3 * maxRing
	tp := FromGraph(graph.Path(n))
	b := newBlock(tp, func(v View) Protocol { return &lull{v: v, gap: 1} }, 0, n)
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
		b.start(r)
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
