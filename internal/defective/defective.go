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
//     The path structure is itself a pair system: each edge occupies one
//     (endpoint, group there, temporary color) key per endpoint.
//  4. The final color is the triple (i, j, pathColor) — at most
//     3·4β(4β+1)/2 = O(β²) colors.
//
// Defect: at an endpoint u, two same-colored edges must lie in different
// groups of u (same group ⇒ conflict-path neighbors ⇒ different third
// component), so each endpoint contributes at most ⌈deg(u)/4β⌉−1 defects:
// defect(e) ≤ ⌈deg(u)/4β⌉+⌈deg(v)/4β⌉−2 ≤ deg(e)/2β.
//
// The implementation operates on pair systems (local.Pairs: items
// occupying two sides, conflicting when they share one) so that the
// paper's recursion can apply it to ordinary graphs, to subgraphs of
// uncolored edges, and to the virtual graphs of §4.2 alike. ColorGraph
// adapts a graph.Graph.
package defective

import (
	"fmt"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/local"
)

// Result carries a defective edge coloring.
type Result struct {
	// Colors maps item index to the defective color in [0, Palette)
	// (ColorGraph: EdgeID, −1 for inactive edges).
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

// Color computes the defective edge coloring of the pair system sys.
// Degrees, groups and the defect guarantee all refer to its items; a
// caller coloring a subset builds the subset's own system (local.Pairs.Sub
// or local.ActivePairs).
//
// initColors optionally provides a proper coloring of the conflict system
// with initX colors, indexed by item, seeding the internal 3-coloring so its
// log* term is paid on initX rather than on the item count; the paper's
// recursion hands down the global O(Δ̄²)-coloring here. Pass nil to fall
// back to item indices (X = the item count).
func Color(sys *local.Pairs, beta int, initColors []int, initX int, run local.Engine) (*Result, error) {
	if beta < 1 {
		return nil, fmt.Errorf("defective: beta %d < 1", beta)
	}
	if run == nil {
		run = local.Sequential
	}
	n := len(sys.Key)
	init := initColors
	if init == nil {
		init, initX = make([]int, n), n
		for i := range init {
			init[i] = i
		}
	} else if len(init) != n {
		return nil, fmt.Errorf("defective: initColors has %d entries for %d items", len(init), n)
	}
	b4 := 4 * beta

	// Step 1 (one exchange round in the node model): every side ranks its
	// items, and each item learns its rank at both sides — its position in
	// the side's item list, sys.Pos.
	// Step 2 (local): an item's number at a side is its rank mod 4β, its
	// group there is its rank / 4β, and its temporary color is the pair
	// (lo, hi) of its two numbers, lo ≤ hi.
	// Step 3: two items are linked iff they share a side, their group at
	// it and their temporary color — a pair system of its own, whose key
	// (side s, group g, lo, hi) is named by the item at position g·4β+lo
	// of s (at or before the item itself), which of its sides s is, and hi.
	// Each item can evaluate this after one round in which all items
	// announce (temporary color, group at each side) — charged below.
	pair := make([]int, n)
	paths := make([][2]int64, n)
	for i, pos := range sys.Pos {
		lo, hi := int(pos[0])%b4, int(pos[1])%b4
		if lo > hi {
			lo, hi = hi, lo
		}
		// Triangular index of the pair (lo, hi) with 0 ≤ lo ≤ hi < 4β.
		pair[i] = lo*b4 - lo*(lo-1)/2 + (hi - lo)
		for x, s := range sys.Key[i] {
			at := sys.Side(s)[int(pos[x])/b4*b4+lo]
			slot := 2 * int64(at)
			if sys.Key[at][0] != s {
				slot++
			}
			paths[i][x] = slot<<31 | int64(hi)
		}
	}
	topo := local.NewPairs(paths).Topology()
	if topo.MaxDeg > 2 {
		// The paper's §4.1 argument guarantees ≤ 2; anything else is a bug.
		return nil, fmt.Errorf("defective: conflict structure has degree %d > 2", topo.MaxDeg)
	}
	three, stats, err := linial.ThreeColorPaths(topo, init, initX, run)
	if err != nil {
		return nil, fmt.Errorf("defective: 3-coloring conflict paths: %w", err)
	}

	// Step 4 (local): assemble the triple (lo, hi, pathColor) into a color.
	colors := make([]int, n)
	for i := range colors {
		colors[i] = pair[i]*3 + three[i]
	}
	// Cost: one round for activity ranks, one round announcing temporary
	// colors/groups, plus the distributed 3-coloring.
	stats.Rounds += 2
	return &Result{Colors: colors, Palette: Palette(beta), Stats: stats}, nil
}

// ColorGraph applies Color to the edges of g that active marks (all of them
// when active is nil): side keys are the endpoint node IDs, so groups and
// degrees are exactly the paper's among the active edges, and the 3-coloring
// starts from each active edge's rank among them. Colors are indexed by
// EdgeID, −1 for inactive edges.
func ColorGraph(g *graph.Graph, active []bool, beta int, run local.Engine) (*Result, error) {
	sys, edges := local.ActivePairs(local.GraphPairs(g), active)
	res, err := Color(sys, beta, nil, 0, run)
	if err != nil {
		return nil, err
	}
	colors := make([]int, g.M())
	for e := range colors {
		colors[e] = -1
	}
	for i, e := range edges {
		colors[e] = res.Colors[i]
	}
	res.Colors = colors
	return res, nil
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
