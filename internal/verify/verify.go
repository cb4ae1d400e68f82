// Package verify provides the independent validators used by tests,
// examples and the experiment harness: proper-coloring checks,
// list-respecting checks, defect measurement, palette accounting, and a
// locality falsifier that empirically refutes overclaimed round counts.
package verify

import (
	"fmt"

	"github.com/distec/distec/internal/graph"
)

// EdgeColoring checks that colors is a proper edge coloring of the active
// edges of g: every active edge colored with a non-negative color, no two
// conflicting active edges sharing one. active may be nil for all edges.
func EdgeColoring(g *graph.Graph, active []bool, colors []int) error {
	if len(colors) != g.M() {
		return fmt.Errorf("verify: %d colors for %d edges", len(colors), g.M())
	}
	for e := 0; e < g.M(); e++ {
		if active != nil && !active[e] {
			continue
		}
		if colors[e] < 0 {
			return fmt.Errorf("verify: edge %d uncolored", e)
		}
		var err error
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if err == nil && (active == nil || active[f]) && colors[f] == colors[e] {
				err = fmt.Errorf("verify: edges %d and %d conflict with color %d", e, f, colors[e])
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ListRespecting checks that every active edge's color belongs to its list.
func ListRespecting(g *graph.Graph, active []bool, lists [][]int, colors []int) error {
	for e := 0; e < g.M(); e++ {
		if active != nil && !active[e] {
			continue
		}
		ok := false
		for _, c := range lists[e] {
			if c == colors[e] {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("verify: edge %d color %d not in its list", e, colors[e])
		}
	}
	return nil
}

// Defective checks that no active edge has more same-colored conflicting
// active edges than bound(e) allows.
func Defective(g *graph.Graph, active []bool, colors []int, bound func(e graph.EdgeID) int) error {
	for e := 0; e < g.M(); e++ {
		if active != nil && !active[e] {
			continue
		}
		d := 0
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if (active == nil || active[f]) && colors[f] == colors[e] {
				d++
			}
		})
		if b := bound(graph.EdgeID(e)); d > b {
			return fmt.Errorf("verify: edge %d has defect %d > bound %d", e, d, b)
		}
	}
	return nil
}

// CountColors returns the number of distinct non-negative colors used.
func CountColors(colors []int) int {
	seen := make(map[int]bool)
	for _, c := range colors {
		if c >= 0 {
			seen[c] = true
		}
	}
	return len(seen)
}

// PaletteRespected checks that all used colors lie in [0, c).
func PaletteRespected(colors []int, c int) error {
	for e, col := range colors {
		if col >= c {
			return fmt.Errorf("verify: edge %d color %d outside palette [0,%d)", e, col, c)
		}
	}
	return nil
}
