package local_test

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/randomized"
	"github.com/distec/distec/internal/trace"
	"github.com/distec/distec/internal/verify"
)

// wrapped applies wrap to every protocol its engine's runs build.
type wrapped struct {
	local.Engine
	wrap func(local.Protocol) local.Protocol
}

func (e wrapped) Run(t *local.Topology, f local.Factory, opts *local.Options) (local.Stats, error) {
	return e.Engine.Run(t, func(v local.View) local.Protocol { return e.wrap(f(v)) }, opts)
}

// perPort hides a protocol's broadcast path and keeps its sleeper fast
// path, so the engines drive it through Send and Receive with everything
// else unchanged.
func perPort(p local.Protocol) local.Protocol {
	if sl, ok := p.(local.Sleeper); ok {
		return struct {
			local.Protocol
			local.Sleeper
		}{p, sl}
	}
	return struct{ local.Protocol }{p}
}

// variant is one engine configuration of the broadcast equivalence tests.
type variant struct {
	name      string
	run       local.Engine
	broadcast bool // the broadcast path is visible
	stepped   bool // the sleeper fast path is hidden
}

// variants runs every engine (sequential; sharded with 1, 2 and n+1
// shards) with the broadcast path, with it hidden, and with it kept but
// the sleeper fast path hidden — then every broadcaster is stepped in
// every round until it halts, as the engines ran every entity before wake
// buckets. The broadcast variants require every protocol
// built to be a Broadcaster.
func variants(t *testing.T, n int) []variant {
	fast := func(p local.Protocol) local.Protocol {
		if _, ok := p.(local.Broadcaster); !ok {
			t.Errorf("%T is not a local.Broadcaster", p)
		}
		return p
	}
	stepped := func(p local.Protocol) local.Protocol {
		b, ok := p.(local.Broadcaster)
		if !ok {
			t.Errorf("%T is not a local.Broadcaster", p)
			return p
		}
		return struct{ local.Broadcaster }{b}
	}
	var out []variant
	for _, eng := range []local.Engine{
		local.Sequential,
		local.Sharded(1),
		local.Sharded(2),
		local.Sharded(n + 1),
	} {
		out = append(out,
			variant{eng.Name() + "/broadcast", wrapped{eng, fast}, true, false},
			variant{eng.Name() + "/per-port", wrapped{eng, perPort}, false, false},
			variant{eng.Name() + "/stepped", wrapped{eng, stepped}, true, true})
	}
	return out
}

// roundProfile renders a trace's engine-invariant content: each span's
// label, entity count and round events without their timings.
func roundProfile(tr *trace.Trace) []string {
	var out []string
	for _, sp := range tr.Spans() {
		out = append(out, fmt.Sprintf("span label=%q entities=%d rounds=%d err=%q", sp.Label, sp.Entities, len(sp.Rounds), sp.Err))
		for _, ev := range sp.Rounds {
			out = append(out, fmt.Sprintf("  round %d msgs=%d recv=%d halted=%d active=%d",
				ev.Round, ev.Messages, ev.Received, ev.Halted, ev.Active))
		}
	}
	return out
}

// TestBroadcastPathMatchesPerPort runs every protocol on the broadcast
// path — Linial's Reduce, ReduceToTarget and ThreeColorPaths, the greedy
// base, the randomized trials and the distributed check — with the path,
// with it hidden, and stepped every round, on every engine, and requires
// identical outputs, Stats and per-round trace events.
func TestBroadcastPathMatchesPerPort(t *testing.T) {
	g := graph.RandomRegular(40, 5, 3)
	tp := local.EdgeConflict(g)
	ring := local.EdgeConflict(graph.Cycle(37))
	chain := local.EdgeConflict(graph.Path(20))
	// Spread-out initial colors, so Linial's plan is not empty.
	const spread = 1009
	ids := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = spread * i
		}
		return out
	}
	lists := make([][]int, tp.N())
	for i := range lists {
		for k := 0; k <= tp.Degree(i); k++ {
			lists[i] = append(lists[i], (i+k)%(tp.MaxDeg+4))
		}
		slices.Sort(lists[i])
	}
	palette := make([]int, 2*g.MaxDegree()-1)
	for c := range palette {
		palette[c] = c
	}
	edgeLists := make([][]int, g.M())
	for e := range edgeLists {
		edgeLists[e] = palette
	}
	proper, _, err := listcolor.SolveOnTopology(tp, ids(tp.N()), spread*tp.N(), lists, nil)
	if err != nil {
		t.Fatal(err)
	}
	improper := slices.Clone(proper)
	improper[7] = improper[int(tp.Ports[7][0])]
	check := func(colors []int) func(local.Engine) ([]int, local.Stats, error) {
		return func(run local.Engine) ([]int, local.Stats, error) {
			ok, st, err := verify.DistributedCheck(tp, colors, run)
			if ok {
				return []int{1}, st, err
			}
			return []int{0}, st, err
		}
	}
	cases := []struct {
		name  string
		n     int
		solve func(local.Engine) ([]int, local.Stats, error)
	}{
		{"linial.Reduce", tp.N(), func(run local.Engine) ([]int, local.Stats, error) {
			return linial.Reduce(tp, ids(tp.N()), spread*tp.N(), run)
		}},
		{"linial.ReduceToTarget", tp.N(), func(run local.Engine) ([]int, local.Stats, error) {
			return linial.ReduceToTarget(tp, ids(tp.N()), spread*tp.N(), tp.MaxDeg+1, run)
		}},
		{"linial.ThreeColorPaths/ring", ring.N(), func(run local.Engine) ([]int, local.Stats, error) {
			return linial.ThreeColorPaths(ring, ids(ring.N()), spread*ring.N(), run)
		}},
		{"linial.ThreeColorPaths/path", chain.N(), func(run local.Engine) ([]int, local.Stats, error) {
			return linial.ThreeColorPaths(chain, ids(chain.N()), spread*chain.N(), run)
		}},
		{"listcolor.SolveOnTopology", tp.N(), func(run local.Engine) ([]int, local.Stats, error) {
			return listcolor.SolveOnTopology(tp, ids(tp.N()), spread*tp.N(), lists, run)
		}},
		{"randomized.Solve", g.M(), func(run local.Engine) ([]int, local.Stats, error) {
			return randomized.Solve(g, nil, edgeLists, 11, run)
		}},
		{"verify.DistributedCheck/proper", tp.N(), check(proper)},
		{"verify.DistributedCheck/improper", tp.N(), check(improper)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want []int
			var wantStats local.Stats
			var wantProfile []string
			for k, v := range variants(t, c.n) {
				tr := trace.New()
				out, stats, err := c.solve(local.Traced(v.run, tr))
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				profile := roundProfile(tr)
				if k == 0 {
					want, wantStats, wantProfile = out, stats, profile
					if stats.Messages == 0 || len(profile) == 0 {
						t.Fatalf("%s: empty run: %+v", v.name, stats)
					}
					continue
				}
				if stats != wantStats {
					t.Errorf("%s: stats %+v, want %+v", v.name, stats, wantStats)
				}
				if !slices.Equal(out, want) {
					t.Errorf("%s: output differs from sequential/broadcast", v.name)
				}
				if !slices.Equal(profile, wantProfile) {
					t.Errorf("%s: trace differs:\n%v\nwant:\n%v", v.name, profile, wantProfile)
				}
			}
		})
	}
}

// beacon is the broadcast contract's test protocol: entity i broadcasts
// 1000·i+r in the rounds where beaconSends(i, r) holds (ok == false in the
// others) and halts after round beaconHalts(i). Every round it checks each
// port against that schedule: a neighbor reads as sent exactly when it was
// still active and chose to send, with this round's value. Send and
// Receive count their calls, so a test can tell which path an engine took.
type beacon struct {
	v       local.View
	ports   []int32
	t       *testing.T
	perPort *atomic.Int64
}

func beaconSends(i, r int) bool { return (i+r)%3 != 0 }
func beaconHalts(i int) int     { return i%5 + 2 }

func (b *beacon) Send(r int) []local.Message {
	b.perPort.Add(1)
	return local.SendPerPort(b, r, b.v.Degree)
}

func (b *beacon) Receive(r int, inbox []local.Message) bool {
	b.perPort.Add(1)
	return local.ReceivePerPort(b, r, inbox)
}

func (b *beacon) Broadcast(r int) (int, bool) {
	return 1000*b.v.Index + r, beaconSends(b.v.Index, r)
}

func (b *beacon) ReceiveBroadcast(r int, in local.Broadcasts) bool {
	if in.Len() != b.v.Degree {
		b.t.Errorf("entity %d: %d ports, want %d", b.v.Index, in.Len(), b.v.Degree)
	}
	for p := 0; p < in.Len(); p++ {
		j := int(b.ports[p])
		v, sent := in.At(p)
		wantSent := r <= beaconHalts(j) && beaconSends(j, r)
		if sent != wantSent || (sent && v != 1000*j+r) {
			b.t.Errorf("round %d, entity %d port %d (neighbor %d): got (%d, %v), want sent=%v value %d",
				r, b.v.Index, p, j, v, sent, wantSent, 1000*j+r)
		}
	}
	return r >= beaconHalts(b.v.Index)
}

// TestBroadcastContract pins the broadcast path's semantics on every
// engine: ok == false sends nothing, a neighbor that halted in an earlier
// round reads as not sent, values are the round's own, and each broadcast
// counts one message per port of its sender. The broadcast variants must
// never call Send or Receive; the per-port ones must.
func TestBroadcastContract(t *testing.T) {
	tp := local.FromGraph(graph.RandomRegular(30, 4, 2))
	var want local.Stats
	for i := range tp.N() {
		for r := 1; r <= beaconHalts(i); r++ {
			if beaconSends(i, r) {
				want.Messages += int64(tp.Degree(i))
			}
		}
		want.Rounds = max(want.Rounds, beaconHalts(i))
	}
	for _, v := range variants(t, tp.N()) {
		var calls atomic.Int64
		stats, err := v.run.Run(tp, func(view local.View) local.Protocol {
			return &beacon{v: view, ports: tp.Ports[view.Index], t: t, perPort: &calls}
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if stats != want {
			t.Errorf("%s: stats %+v, want %+v", v.name, stats, want)
		}
		if (calls.Load() == 0) != v.broadcast {
			t.Errorf("%s: %d Send/Receive calls", v.name, calls.Load())
		}
	}
}

// alarm checks waking and quiet rounds on the broadcast path: entity 0
// broadcasts in round 2 and halts; every other entity sleeps until round
// 10, must hear it in round 2, and counts its ReceiveNone calls.
type alarm struct {
	v       local.View
	heardAt []int
	quiet   []int
}

func (a *alarm) Send(r int) []local.Message { return local.SendPerPort(a, r, a.v.Degree) }

func (a *alarm) Receive(r int, inbox []local.Message) bool {
	return local.ReceivePerPort(a, r, inbox)
}

func (a *alarm) Broadcast(r int) (int, bool) { return 7, a.v.Index == 0 && r == 2 }

func (a *alarm) ReceiveBroadcast(r int, in local.Broadcasts) bool {
	for p := 0; p < in.Len(); p++ {
		if v, sent := in.At(p); sent && v == 7 && a.heardAt[a.v.Index] == 0 {
			a.heardAt[a.v.Index] = r
		}
	}
	return a.finished(r)
}

func (a *alarm) ReceiveNone(r int) bool {
	a.quiet[a.v.Index]++
	return a.finished(r)
}

func (a *alarm) NextWake(r int) int {
	if a.v.Index == 0 {
		return 2
	}
	return 10
}

func (a *alarm) finished(r int) bool { return r >= 10 || (a.v.Index == 0 && r >= 2) }

// TestBroadcastWakesSleeper: a broadcast wakes a sleeping neighbor in the
// round it is sent, the engine asks the woken sleeper for its next wake
// again, and ReceiveNone still runs in the quiet rounds an entity is awake
// for — identically on both paths and every engine. Stepped entities hear
// the same broadcast and never take the quiet path.
func TestBroadcastWakesSleeper(t *testing.T) {
	tp := local.FromGraph(graph.Star(6))
	for _, v := range variants(t, tp.N()) {
		heardAt := make([]int, tp.N())
		quiet := make([]int, tp.N())
		stats, err := v.run.Run(tp, func(view local.View) local.Protocol {
			return &alarm{v: view, heardAt: heardAt, quiet: quiet}
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if want := (local.Stats{Rounds: 10, Messages: 5}); stats != want {
			t.Errorf("%s: stats %+v, want %+v", v.name, stats, want)
		}
		// Quiet in round 1 (then asleep until 10), woken in round 2 and
		// put back to sleep until 10, quiet at the wake-up round 10.
		wantLeaf, wantCenter := 2, 2
		if v.stepped {
			wantLeaf, wantCenter = 0, 0
		}
		for i := 1; i < tp.N(); i++ {
			if heardAt[i] != 2 || quiet[i] != wantLeaf {
				t.Errorf("%s: leaf %d heard at round %d after %d quiet rounds, want round 2 and %d", v.name, i, heardAt[i], quiet[i], wantLeaf)
			}
		}
		// The center hears nothing in either of its rounds.
		if quiet[0] != wantCenter {
			t.Errorf("%s: center had %d quiet rounds, want %d", v.name, quiet[0], wantCenter)
		}
	}
}
