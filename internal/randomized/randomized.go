// Package randomized implements the classic randomized (2Δ−1)-edge coloring
// baseline in the style of [ABI86, Lub86]: every uncolored edge repeatedly
// proposes a uniformly random free color from its list and keeps it if no
// conflicting edge proposed the same color in the same round. Each edge
// succeeds with constant probability per round, so all edges finish in
// O(log n) rounds with high probability.
//
// The paper is about deterministic algorithms; this baseline provides the
// randomized O(log n) context line in the related-work comparison (E12).
// Randomness is simulated with a per-edge deterministic PRG seeded from
// (seed, edge, round) so that experiment tables are reproducible.
package randomized

import (
	"fmt"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// mix is a splitmix64-style hash used as the per-(edge, round) randomness.
func mix(seed, a, b uint64) uint64 {
	z := seed ^ a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// trial encodes one round's message as the int a trialProto broadcasts:
// the color it proposes or has fixed, and whether it is fixed, in the low
// bit (colors are list entries, far below the shift's range).
func trial(color int, fixed bool) int {
	v := color << 1
	if fixed {
		v |= 1
	}
	return v
}

// trialProto is one edge's randomized trials, a local.Broadcaster.
type trialProto struct {
	v     local.View
	seed  uint64
	list  []int // remaining free colors
	color int
	fixed bool
	sent  bool // fixed color has been announced
	out   []int
	errs  *local.ErrorSink
}

func (tp *trialProto) Send(r int) []local.Message { return local.SendPerPort(tp, r, tp.v.Degree) }

func (tp *trialProto) Receive(r int, inbox []local.Message) bool {
	return local.ReceivePerPort(tp, r, inbox)
}

func (tp *trialProto) Broadcast(r int) (int, bool) {
	if tp.fixed {
		tp.sent = true
		return trial(tp.color, true), true
	}
	if len(tp.list) == 0 {
		tp.errs.Set(fmt.Errorf("randomized: edge entity %d ran out of colors", tp.v.Index))
		return 0, false
	}
	tp.color = tp.list[mix(tp.seed, uint64(tp.v.Index), uint64(r))%uint64(len(tp.list))]
	return trial(tp.color, false), true
}

func (tp *trialProto) ReceiveBroadcast(r int, in local.Broadcasts) bool {
	if tp.fixed {
		// The fixed color was announced this round; the edge is done.
		tp.out[tp.v.Index] = tp.color
		return tp.sent
	}
	conflict := false
	for p := 0; p < in.Len(); p++ {
		m, sent := in.At(p)
		if !sent {
			continue
		}
		c := m >> 1
		if m&1 == 1 {
			tp.drop(c)
		}
		if c == tp.color {
			conflict = true
		}
	}
	if !conflict {
		tp.fixed = true // announce next round, then halt
	}
	return false
}

func (tp *trialProto) drop(c int) {
	for i, x := range tp.list {
		if x == c {
			tp.list = append(tp.list[:i], tp.list[i+1:]...)
			return
		}
	}
}

// Solve colors the active edges of g from their lists using randomized
// trials. Lists must strictly exceed active degrees (slack 1). Rounds are
// O(log m) with high probability; a deterministic round cap of 40·log₂(m)+60
// turns pathological luck into an error instead of a hang.
func Solve(g *graph.Graph, active []bool, lists [][]int, seed uint64, run local.Engine) ([]int, local.Stats, error) {
	if run == nil {
		run = local.Sequential
	}
	m := g.M()
	sys, edges := local.ActivePairs(local.GraphPairs(g), active)
	out := make([]int, len(edges))
	errs := &local.ErrorSink{}
	factory := func(v local.View) local.Protocol {
		return &trialProto{
			v:    v,
			seed: seed,
			list: append([]int(nil), lists[edges[v.Index]]...),
			out:  out,
			errs: errs,
		}
	}
	roundCap := 60
	for x := m; x > 1; x >>= 1 {
		roundCap += 40
	}
	stats, err := run.Run(sys.Topology(), factory, &local.Options{MaxRounds: roundCap})
	if err != nil {
		return nil, stats, err
	}
	if err := errs.Err(); err != nil {
		return nil, stats, err
	}
	colors := make([]int, m)
	for e := range colors {
		colors[e] = -1
	}
	for i, e := range edges {
		colors[e] = out[i]
	}
	return colors, stats, nil
}
