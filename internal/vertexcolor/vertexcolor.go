// Package vertexcolor implements the classical deterministic (Δ+1)-vertex
// coloring and (deg(v)+1)-list vertex coloring in O(Δ² + log* n) rounds
// ([Lin87, SV93]), as context for the paper: (2Δ−1)-edge coloring is the
// special case of (Δ+1)-vertex coloring on the line graph (paper §1), and
// the fastest known vertex algorithm is still polynomial in Δ while the
// paper pushes edge coloring to quasi-polylogarithmic in Δ.
package vertexcolor

import (
	"fmt"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
)

// SolveList solves the (deg(v)+1)-list vertex coloring problem on g: each
// node must be colored from lists[v] (|lists[v]| > deg(v)) so that adjacent
// nodes differ. Runs in O(Δ² + log* n) rounds.
func SolveList(g *graph.Graph, lists [][]int, run local.Engine) ([]int, local.Stats, error) {
	t := local.FromGraph(g)
	initial := make([]int, g.N())
	for v := range initial {
		initial[v] = v
	}
	return listcolor.SolveOnTopology(t, initial, g.N(), lists, run)
}

// Solve computes a (Δ+1)-vertex coloring of g in O(Δ² + log* n) rounds.
func Solve(g *graph.Graph, run local.Engine) ([]int, local.Stats, error) {
	c := g.MaxDegree() + 1
	palette := make([]int, c)
	for i := range palette {
		palette[i] = i
	}
	lists := make([][]int, g.N())
	for v := range lists {
		lists[v] = palette
	}
	return SolveList(g, lists, run)
}

// Verify checks that colors is a proper vertex coloring of g.
func Verify(g *graph.Graph, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("vertexcolor: %d colors for %d nodes", len(colors), g.N())
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(graph.EdgeID(e))
		if colors[u] < 0 || colors[v] < 0 {
			return fmt.Errorf("vertexcolor: uncolored endpoint of edge {%d,%d}", u, v)
		}
		if colors[u] == colors[v] {
			return fmt.Errorf("vertexcolor: nodes %d and %d share color %d", u, v, colors[u])
		}
	}
	return nil
}
