package sharded

import (
	"testing"
	"time"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// lull is a Sleeper with long quiet stretches: entity i sleeps until round
// gap·(i+1), then broadcasts its index and halts. Its neighbors are woken
// by the broadcast and go back to sleep.
type lull struct {
	v   local.View
	gap int
}

func (l *lull) at() int { return l.gap * (l.v.Index + 1) }

func (l *lull) Send(r int) []local.Message { return local.SendPerPort(l, r, l.v.Degree) }
func (l *lull) Receive(r int, inbox []local.Message) bool {
	return local.ReceivePerPort(l, r, inbox)
}
func (l *lull) Broadcast(r int) (int, bool)                     { return l.v.Index, r == l.at() }
func (l *lull) ReceiveBroadcast(r int, _ local.Broadcasts) bool { return r >= l.at() }
func (l *lull) ReceiveNone(r int) bool                          { return r >= l.at() }
func (l *lull) NextWake(int) int                                { return l.at() }

// TestQuietRoundsExamineNoEntity drives a lull run over three shards
// round by round and reads the workers' visit counters: a round in which
// no entity is due and nothing is sent examines no entity in any shard,
// and a wake-up round examines the waking entity and the neighbors it
// reaches, across shard boundaries too.
func TestQuietRoundsExamineNoEntity(t *testing.T) {
	const n, gap = 12, 40
	tp := local.FromGraph(graph.Cycle(n))
	x := Prepare(tp, func(v local.View) local.Protocol { return &lull{v: v, gap: gap} }, nil, 3, nil)
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

// BenchmarkQuietRounds measures the cost of a round in which almost
// nothing happens: 1000 lull entities on a cycle, each waking once over
// 64 000 rounds, on the sequential engine and the sharded engine with one
// (inline) and two shards. It reports ns/round.
func BenchmarkQuietRounds(b *testing.B) {
	tp := local.FromGraph(graph.Cycle(1000))
	f := func(v local.View) local.Protocol { return &lull{v: v, gap: 64} }
	for _, eng := range []local.Engine{local.Sequential, New(Config{Shards: 1}), New(Config{Shards: 2})} {
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
