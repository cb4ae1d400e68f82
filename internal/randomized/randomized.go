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

type msg struct {
	Fixed bool
	Color int
}

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

func (tp *trialProto) Send(r int) []local.Message {
	msgs := make([]local.Message, tp.v.Degree)
	var m msg
	if tp.fixed {
		m = msg{Fixed: true, Color: tp.color}
		tp.sent = true
	} else {
		if len(tp.list) == 0 {
			tp.errs.Set(fmt.Errorf("randomized: edge entity %d ran out of colors", tp.v.Index))
			return nil
		}
		pick := tp.list[mix(tp.seed, uint64(tp.v.Index), uint64(r))%uint64(len(tp.list))]
		m = msg{Fixed: false, Color: pick}
		tp.color = pick
	}
	for p := range msgs {
		msgs[p] = m
	}
	return msgs
}

func (tp *trialProto) Receive(r int, inbox []local.Message) bool {
	if tp.fixed {
		// The fixed color was announced this round; the edge is done.
		tp.out[tp.v.Index] = tp.color
		return tp.sent
	}
	conflict := false
	for _, im := range inbox {
		if im == nil {
			continue
		}
		mm := im.(msg)
		if mm.Fixed {
			tp.drop(mm.Color)
			if mm.Color == tp.color {
				conflict = true
			}
		} else if mm.Color == tp.color {
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
