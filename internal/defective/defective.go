// Package defective implements the paper's defective edge coloring (§4.1):
// for any β ≥ 1, a deg(e)/(2β)-defective edge coloring with O(β²) colors in
// O(log* X) rounds.
//
// Construction, exactly as in the paper:
//
//  1. Every node v partitions its incident (active) edges into ⌈deg(v)/4β⌉
//     groups of at most 4β edges, numbering the edges of each group with
//     distinct values in {0, …, 4β−1}.
//  2. Each edge learns the two numbers assigned by its endpoints and adopts
//     the ordered pair (i, j), i ≤ j, as its temporary color.
//  3. Within one group, at most two edges share a temporary color, so edges
//     sharing both a group and a temporary color form disjoint paths and
//     cycles; these are 3-colored in O(log* X) rounds (package linial).
//  4. The final color is the triple (i, j, pathColor) — at most
//     3·4β(4β+1)/2 = O(β²) colors.
//
// Defect: at an endpoint u, two same-colored edges must lie in different
// groups of u (same group ⇒ conflict-path neighbors ⇒ different third
// component), so each endpoint contributes at most ⌈deg(u)/4β⌉−1 defects:
// defect(e) ≤ ⌈deg(u)/4β⌉+⌈deg(v)/4β⌉−2 ≤ deg(e)/2β.
//
// The implementation operates on pair systems (items occupying two side
// keys, conflicting when they share a key) so that the paper's recursion can
// apply it to ordinary graphs, to subgraphs of uncolored edges, and to the
// virtual graphs of §4.2 alike. ColorGraph adapts a graph.Graph.
package defective

import (
	"fmt"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/local"
)

// Result carries a defective edge coloring of the active items.
type Result struct {
	// Colors maps item index to the defective color in [0, Palette);
	// −1 for inactive items.
	Colors []int
	// Palette is the number of possible colors: 3·4β(4β+1)/2.
	Palette int
	// Stats is the LOCAL cost: two rounds of constant-size exchange
	// (activity ranks and temporary colors) plus the O(log* X) 3-coloring.
	Stats local.Stats
}

// Palette returns the palette size used by Color for a given β.
func Palette(beta int) int {
	b4 := 4 * beta
	return 3 * b4 * (b4 + 1) / 2
}

// DefectBound returns the paper's defect guarantee for an item whose sides
// hold du and dv active items: ⌈du/4β⌉+⌈dv/4β⌉−2.
func DefectBound(du, dv, beta int) int {
	b4 := 4 * beta
	return ceilDiv(du, b4) + ceilDiv(dv, b4) - 2
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Color computes the defective edge coloring of the active items of the pair
// system. active may be nil, meaning all items. Degrees, groups and the
// defect guarantee all refer to the subsystem induced by the active items.
//
// initColors optionally provides a proper coloring of the conflict system
// with initX colors, seeding the internal 3-coloring so its log* term is
// paid on initX rather than on len(pairs); the paper's recursion hands down
// the global O(Δ̄²)-coloring here. Pass nil to fall back to item indices
// (X = len(pairs)).
func Color(pairs [][2]int64, active []bool, beta int, initColors []int, initX int, run local.Engine) (*Result, error) {
	if beta < 1 {
		return nil, fmt.Errorf("defective: beta %d < 1", beta)
	}
	if run == nil {
		run = local.Sequential
	}
	m := len(pairs)
	if active != nil {
		// Compact to the active items so topology construction never pays
		// for inactive ones; results are scattered back at the end.
		orig := make([]int, 0, m)
		for e := 0; e < m; e++ {
			if active[e] {
				orig = append(orig, e)
			}
		}
		if len(orig) < m {
			cPairs := make([][2]int64, len(orig))
			var cInit []int
			if initColors != nil {
				cInit = make([]int, len(orig))
			}
			for i, oe := range orig {
				cPairs[i] = pairs[oe]
				if cInit != nil {
					cInit[i] = initColors[oe]
				}
			}
			sub, err := Color(cPairs, nil, beta, cInit, initX, run)
			if err != nil {
				return nil, err
			}
			colors := make([]int, m)
			for e := range colors {
				colors[e] = -1
			}
			for i, oe := range orig {
				colors[oe] = sub.Colors[i]
			}
			return &Result{Colors: colors, Palette: sub.Palette, Stats: sub.Stats}, nil
		}
	}
	if active == nil {
		active = make([]bool, m)
		for e := range active {
			active[e] = true
		}
	}
	b4 := 4 * beta

	// Step 1 (one exchange round in the node model): every side key ranks
	// its active items; each active item learns its rank at both sides.
	// This is purely side-local information.
	// An item's rank at a side key is the number of earlier active items
	// incident to that key, so one ordered pass over pairs with per-key
	// counters computes it directly — no intermediate per-key lists, and
	// no map iteration for ordering to leak through.
	rankAt := make([][2]int, m) // rank among active items at side A / side B
	sideCount := make(map[int64]int)
	for e, pr := range pairs {
		if active[e] {
			rankAt[e][0] = sideCount[pr[0]]
			sideCount[pr[0]]++
			rankAt[e][1] = sideCount[pr[1]]
			sideCount[pr[1]]++
		}
	}

	// Step 2 (local): numbers, groups and temporary colors.
	type tmp struct {
		lo, hi int // temporary color pair, lo ≤ hi
		gA, gB int // group index at side A and side B
	}
	tmps := make([]tmp, m)
	for e := 0; e < m; e++ {
		if !active[e] {
			continue
		}
		nA, nB := rankAt[e][0]%b4, rankAt[e][1]%b4
		lo, hi := nA, nB
		if lo > hi {
			lo, hi = hi, lo
		}
		tmps[e] = tmp{lo: lo, hi: hi, gA: rankAt[e][0] / b4, gB: rankAt[e][1] / b4}
	}

	// Step 3: 3-color the conflict paths/cycles. Two active items conflict
	// here iff they share a temporary color and a group at their shared
	// side. Each item can evaluate this after one round in which all items
	// announce (tmp color, group at each side) — charged below.
	full := local.PairConflict(pairs)
	keepLink := func(i, p int) bool {
		me := full.Meta[i].(*local.EdgeMeta)
		j := int(full.Ports[i][p])
		if tmps[i].lo != tmps[j].lo || tmps[i].hi != tmps[j].hi {
			return false
		}
		s := me.SharedKey(p)
		myGroup := tmps[i].gB
		if s == me.A {
			myGroup = tmps[i].gA
		}
		theirGroup := tmps[j].gB
		if s == pairs[j][0] {
			theirGroup = tmps[j].gA
		}
		return myGroup == theirGroup
	}
	sub, orig, _ := local.Induced(full, active, keepLink)
	if sub.MaxDeg > 2 {
		// The paper's §4.1 argument guarantees ≤ 2; anything else is a bug.
		return nil, fmt.Errorf("defective: conflict structure has degree %d > 2", sub.MaxDeg)
	}
	init := make([]int, sub.N())
	x := initX
	if initColors == nil {
		x = m
		for i, oe := range orig {
			init[i] = oe
		}
	} else {
		if len(initColors) != m {
			return nil, fmt.Errorf("defective: initColors has %d entries for %d items", len(initColors), m)
		}
		for i, oe := range orig {
			init[i] = initColors[oe]
		}
	}
	three, stats, err := linial.ThreeColorPaths(sub, init, x, run)
	if err != nil {
		return nil, fmt.Errorf("defective: 3-coloring conflict paths: %w", err)
	}

	// Step 4 (local): assemble the triple (lo, hi, pathColor) into a color.
	colors := make([]int, m)
	for e := range colors {
		colors[e] = -1
	}
	for i, oe := range orig {
		t := tmps[oe]
		// Triangular index of the pair (lo, hi) with 0 ≤ lo ≤ hi < 4β.
		pair := t.lo*b4 - t.lo*(t.lo-1)/2 + (t.hi - t.lo)
		colors[oe] = pair*3 + three[i]
	}
	// Cost: one round for activity ranks, one round announcing temporary
	// colors/groups, plus the distributed 3-coloring.
	stats.Rounds += 2
	return &Result{Colors: colors, Palette: Palette(beta), Stats: stats}, nil
}

// ColorGraph applies Color to the edges of a graph: side keys are the
// endpoint node IDs, so groups and degrees are exactly the paper's.
func ColorGraph(g *graph.Graph, active []bool, beta int, run local.Engine) (*Result, error) {
	return Color(local.GraphPairs(g), active, beta, nil, 0, run)
}

// MaxDefect computes the maximum defect of the given coloring over the
// active edges: the largest number of same-colored conflicting active edges
// of any edge. Intended for verification and experiments.
func MaxDefect(g *graph.Graph, active []bool, colors []int) int {
	worst := 0
	for e := 0; e < g.M(); e++ {
		if active != nil && !active[e] {
			continue
		}
		if colors[e] < 0 {
			continue
		}
		d := 0
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if (active == nil || active[f]) && colors[f] == colors[e] {
				d++
			}
		})
		if d > worst {
			worst = d
		}
	}
	return worst
}
