package local_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/local"
)

// floodMax mirrors the reference protocol of the package's internal tests:
// send the largest index seen for a fixed number of rounds, then halt.
type floodMax struct {
	v      local.View
	rounds int
	best   int
	out    []int
}

func (f *floodMax) Send(r int) []local.Message {
	msgs := make([]local.Message, f.v.Degree)
	for p := range msgs {
		msgs[p] = f.best
	}
	return msgs
}

func (f *floodMax) Receive(r int, inbox []local.Message) bool {
	for _, m := range inbox {
		if m == nil {
			continue
		}
		if x := m.(int); x > f.best {
			f.best = x
		}
	}
	if r >= f.rounds {
		f.out[f.v.Index] = f.best
		return true
	}
	return false
}

// sleepy exercises the Sleeper fast path: entity i sleeps until round i+1,
// then announces its index and halts; it counts announcements heard.
type sleepy struct {
	v     local.View
	heard int
	out   []int
}

func (s *sleepy) Send(r int) []local.Message {
	if r != s.v.Index+1 {
		return nil
	}
	msgs := make([]local.Message, s.v.Degree)
	for p := range msgs {
		msgs[p] = s.v.Index
	}
	return msgs
}

func (s *sleepy) Receive(r int, inbox []local.Message) bool {
	for _, m := range inbox {
		if m != nil {
			s.heard++
		}
	}
	return s.finished(r)
}

func (s *sleepy) ReceiveNone(r int) bool { return s.finished(r) }
func (s *sleepy) NextWake(r int) int     { return s.v.Index + 1 }

func (s *sleepy) finished(r int) bool {
	if r >= s.v.Index+1 {
		s.out[s.v.Index] = s.heard
		return true
	}
	return false
}

// staggered halts entity i after round i+1, exercising delivery to halted
// entities.
type staggered struct{ v local.View }

func (s *staggered) Send(r int) []local.Message {
	msgs := make([]local.Message, s.v.Degree)
	for p := range msgs {
		msgs[p] = r
	}
	return msgs
}

func (s *staggered) Receive(r int, inbox []local.Message) bool { return r > s.v.Index }

// shardCounts is the matrix of worker counts the equivalence tests sweep,
// including the degenerate single-shard pool and counts exceeding the
// entity count.
func shardCounts(n int) []int {
	return []int{1, 2, 3, 4, n, n + 5}
}

func TestFloodMaxMatchesSequential(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(30), graph.Star(17), graph.Complete(12),
		graph.RandomRegular(48, 4, 3), graph.Path(2),
	} {
		for _, tp := range []*local.Topology{local.FromGraph(g), local.EdgeConflict(g)} {
			rounds := 40
			want := make([]int, tp.N())
			f := func(out []int) local.Factory {
				return func(v local.View) local.Protocol {
					return &floodMax{v: v, rounds: rounds, best: v.Index, out: out}
				}
			}
			wantStats, err := local.Sequential.Run(tp, f(want), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range shardCounts(tp.N()) {
				got := make([]int, tp.N())
				gotStats, err := local.Sharded(shards).Run(tp, f(got), nil)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if gotStats != wantStats {
					t.Fatalf("shards=%d: stats %+v, want %+v", shards, gotStats, wantStats)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d entity %d: got %d, want %d", shards, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSleeperMatchesSequential(t *testing.T) {
	tp := local.FromGraph(graph.Complete(9))
	f := func(out []int) local.Factory {
		return func(v local.View) local.Protocol { return &sleepy{v: v, out: out} }
	}
	want := make([]int, tp.N())
	wantStats, err := local.Sequential.Run(tp, f(want), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts(tp.N()) {
		got := make([]int, tp.N())
		gotStats, err := local.Sharded(shards).Run(tp, f(got), nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if gotStats != wantStats {
			t.Fatalf("shards=%d: stats %+v, want %+v", shards, gotStats, wantStats)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d entity %d: heard %d, want %d", shards, i, got[i], want[i])
			}
		}
	}
}

func TestStaggeredHaltMatchesSequential(t *testing.T) {
	tp := local.FromGraph(graph.Complete(8))
	f := func(v local.View) local.Protocol { return &staggered{v: v} }
	want, err := local.Sequential.Run(tp, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts(tp.N()) {
		got, err := local.Sharded(shards).Run(tp, f, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got != want {
			t.Fatalf("shards=%d: stats %+v, want %+v", shards, got, want)
		}
	}
}

func TestLinialMatchesSequential(t *testing.T) {
	g := graph.RandomRegular(60, 4, 11)
	tp := local.EdgeConflict(g)
	init := make([]int, tp.N())
	for i := range init {
		init[i] = i
	}
	want, wantStats, err := linial.Reduce(tp, init, tp.N(), local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts(tp.N()) {
		got, gotStats, err := linial.Reduce(tp, init, tp.N(), local.Sharded(shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if gotStats != wantStats {
			t.Fatalf("shards=%d: stats %+v, want %+v", shards, gotStats, wantStats)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d entity %d: color %d, want %d", shards, i, got[i], want[i])
			}
		}
	}
}

type neverHalt struct{}

func (neverHalt) Send(r int) []local.Message        { return nil }
func (neverHalt) Receive(int, []local.Message) bool { return false }
func neverFactory(v local.View) local.Protocol      { return neverHalt{} }

// badSender returns a wrong-length outbox from every entity; the reported
// error must name the lowest entity index regardless of worker interleaving.
type badSender struct{}

func (badSender) Send(r int) []local.Message        { return make([]local.Message, 100) }
func (badSender) Receive(int, []local.Message) bool { return false }

func TestSendLengthMismatchDeterministic(t *testing.T) {
	tp := local.FromGraph(graph.Complete(8))
	for _, shards := range []int{1, 3, 8} {
		_, err := local.Sharded(shards).Run(tp, func(local.View) local.Protocol { return badSender{} }, nil)
		if err == nil {
			t.Fatalf("shards=%d: accepted wrong outbox length", shards)
		}
		if !strings.Contains(err.Error(), "entity 0 ") {
			t.Fatalf("shards=%d: error %q does not blame the lowest entity", shards, err)
		}
	}
}

func TestEngineName(t *testing.T) {
	if got := local.Sharded(0).Name(); got != "sharded" {
		t.Fatalf("Name() = %q", got)
	}
	if got := local.Sharded(7).Name(); got != "sharded-7" {
		t.Fatalf("Name() = %q", got)
	}
}

// TestFactoryPanicOnShard has a Factory panic while a fanned-out shard is
// being built: the run must end at once with that panic as its ErrPanic
// error, not go on to run the shard's half-built block.
func TestFactoryPanicOnShard(t *testing.T) {
	_, err := local.Sharded(2).Run(local.FromGraph(graph.Cycle(10)), func(v local.View) local.Protocol {
		if v.Index == 7 {
			panic("factory boom")
		}
		return neverHalt{}
	}, nil)
	if !errors.Is(err, local.ErrPanic) || err.Error() != "local: panic during protocol execution: shard 1: factory boom" {
		t.Fatalf("err = %v, want the factory's panic on shard 1", err)
	}
}
