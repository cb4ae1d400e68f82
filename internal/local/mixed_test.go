package local_test

import (
	"slices"
	"sync/atomic"
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/sharded"
	"github.com/distec/distec/internal/trace"
)

// flood keeps the largest value it hears and, when it halts after round
// floodHalts(i), writes it to out.
type flood struct {
	v   local.View
	val int
	out []int
}

func floodHalts(i int) int { return 3 + i%3 }

func (f *flood) hear(v int) { f.val = max(f.val, v) }

func (f *flood) end(r int) bool {
	if r < floodHalts(f.v.Index) {
		return false
	}
	f.out[f.v.Index] = f.val
	return true
}

// bcastFlood is flood as a Broadcaster: it broadcasts its value in the
// rounds where (i+r)%3 != 0, and counts the calls of its per-port Send, so
// a test can tell which path an engine took.
type bcastFlood struct {
	flood
	sends *atomic.Int64
}

func (b *bcastFlood) Broadcast(r int) (int, bool) { return b.val, (b.v.Index+r)%3 != 0 }

func (b *bcastFlood) ReceiveBroadcast(r int, in local.Broadcasts) bool {
	for p := 0; p < in.Len(); p++ {
		if v, sent := in.At(p); sent {
			b.hear(v)
		}
	}
	return b.end(r)
}

func (b *bcastFlood) Send(r int) []local.Message {
	b.sends.Add(1)
	return local.SendPerPort(b, r, b.v.Degree)
}

func (b *bcastFlood) Receive(r int, inbox []local.Message) bool {
	return local.ReceivePerPort(b, r, inbox)
}

// portFlood is flood as a per-port-only protocol: it tells port p val+p,
// and sends nothing on the ports where (r+p)%3 == 0.
type portFlood struct{ flood }

func (f *portFlood) Send(r int) []local.Message {
	out := make([]local.Message, f.v.Degree)
	for p := range out {
		if (r+p)%3 != 0 {
			out[p] = f.val + p
		}
	}
	return out
}

func (f *portFlood) Receive(r int, inbox []local.Message) bool {
	for _, m := range inbox {
		if m != nil {
			f.hear(m.(int))
		}
	}
	return f.end(r)
}

// TestMixedRunTakesPerPortPath runs a factory that returns a Broadcaster
// for the entities below 2n/3 and a per-port-only protocol for the rest.
// Such a run must take the per-port path on the sequential engine and on
// the sharded engine with 1, 2 and n+1 shards — where some shards hold
// only Broadcasters — with identical outputs, Stats and per-round trace
// events. The same factory with Broadcasters only takes the broadcast
// path, so the Send count tells the paths apart.
func TestMixedRunTakesPerPortPath(t *testing.T) {
	tp := local.FromGraph(graph.RandomRegular(60, 4, 5))
	n, cut := tp.N(), 2*tp.N()/3
	weights := make([]int, n)
	for i := range weights {
		weights[i] = tp.Degree(i) + 1
	}
	if b := sharded.Partition(weights, 2); b[1] > cut {
		t.Fatalf("two-shard split %v leaves no shard of Broadcasters only", b)
	}
	run := func(eng local.Engine, mixed bool) ([]int, local.Stats, []string, int64) {
		out := make([]int, n)
		var sends atomic.Int64
		tr := trace.New()
		stats, err := local.Traced(eng, tr).Run(tp, func(v local.View) local.Protocol {
			f := flood{v: v, val: 7919 * v.Index % 1009, out: out}
			if mixed && v.Index >= cut {
				return &portFlood{f}
			}
			return &bcastFlood{f, &sends}
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		return out, stats, roundProfile(tr), sends.Load()
	}
	var want []int
	var wantStats local.Stats
	var wantProfile []string
	for k, eng := range []local.Engine{
		local.Sequential,
		sharded.New(sharded.Config{Shards: 1}),
		sharded.New(sharded.Config{Shards: 2}),
		sharded.New(sharded.Config{Shards: n + 1}),
	} {
		if _, _, _, sends := run(eng, false); sends != 0 {
			t.Errorf("%s: a run of Broadcasters only called Send %d times", eng.Name(), sends)
		}
		out, stats, profile, sends := run(eng, true)
		if sends == 0 {
			t.Errorf("%s: the mixed run took the broadcast path", eng.Name())
		}
		if k == 0 {
			want, wantStats, wantProfile = out, stats, profile
			if stats.Messages == 0 || stats.Rounds != floodHalts(2) {
				t.Fatalf("%s: stats %+v", eng.Name(), stats)
			}
			continue
		}
		if stats != wantStats {
			t.Errorf("%s: stats %+v, want %+v", eng.Name(), stats, wantStats)
		}
		if !slices.Equal(out, want) {
			t.Errorf("%s: outputs differ from the sequential engine's", eng.Name())
		}
		if !slices.Equal(profile, wantProfile) {
			t.Errorf("%s: trace differs:\n%v\nwant:\n%v", eng.Name(), profile, wantProfile)
		}
	}
}
