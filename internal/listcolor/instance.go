// Package listcolor defines list edge coloring instances — the problem
// family P(Δ̄, S, C) of the paper (§4) — and provides the two solvers the
// recursion bottoms out on:
//
//   - SolveBase: the distributed O(Δ̄² + log* X) solver (Linial classes plus
//     one greedy class per round). The paper uses it as both the
//     "T(O(1), S, C) = O(log* X)" base case and the T(2p−1, 1, 2p) oracle
//     inside the color space reduction.
//   - GreedySequential: the centralized greedy oracle, used by tests as a
//     correctness reference and by experiments as a color-count floor.
//
// An Instance is defined over a subset of the edges of a graph (Active);
// conflicts are edges sharing an endpoint, restricted to active edges. Lists
// are sets of colors from the palette {0, …, C−1}. The invariant required by
// the solvable case is |Le| > S · deg_active(e) for slack S ≥ 1, with the
// paper's "(deg(e)+1)-list edge coloring" corresponding to S = 1.
package listcolor

import (
	"fmt"
	"sort"

	"github.com/distec/distec/internal/graph"
)

// Instance is a list edge coloring instance over the active edges of G.
type Instance struct {
	// G is the underlying graph; conflict = sharing an endpoint.
	G *Graph
	// Active marks the edges participating in this instance, by EdgeID.
	Active []bool
	// Lists holds each active edge's allowed colors, ascending, by EdgeID.
	// Entries of inactive edges are ignored.
	Lists [][]int
	// C is the palette size: every list color lies in [0, C).
	C int
}

// Graph aliases graph.Graph so that callers of this package read naturally.
type Graph = graph.Graph

// NewUniform returns the instance where every edge of g is active with the
// full palette {0..c−1} as its list. With c = 2Δ−1 this is the classic
// (2Δ−1)-edge coloring problem; any c ≥ Δ̄+1 is (deg(e)+1)-solvable.
func NewUniform(g *Graph, c int) *Instance {
	m := g.M()
	lists := make([][]int, m)
	palette := make([]int, c)
	for i := range palette {
		palette[i] = i
	}
	active := make([]bool, m)
	for e := 0; e < m; e++ {
		active[e] = true
		lists[e] = palette // shared storage: lists are read-only by contract
	}
	return &Instance{G: g, Active: active, Lists: lists, C: c}
}

// NewDegreeLists returns the adversarial-style instance where each edge gets
// a pseudo-random list of exactly deg(e)+1 colors from the palette {0..c−1}.
// Requires c > Δ̄. Deterministic for a given seed.
func NewDegreeLists(g *Graph, c int, seed uint64) (*Instance, error) {
	if dbar := g.MaxEdgeDegree(); c <= dbar {
		return nil, fmt.Errorf("listcolor: palette %d too small for Δ̄=%d", c, dbar)
	}
	m := g.M()
	lists := make([][]int, m)
	active := make([]bool, m)
	s := seed
	nextRand := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for e := 0; e < m; e++ {
		active[e] = true
		want := g.EdgeDegree(graph.EdgeID(e)) + 1
		// Partial Fisher-Yates over the palette.
		perm := make([]int, c)
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < want; i++ {
			j := i + int(nextRand()%uint64(c-i))
			perm[i], perm[j] = perm[j], perm[i]
		}
		l := append([]int(nil), perm[:want]...)
		sort.Ints(l)
		lists[e] = l
	}
	return &Instance{G: g, Active: active, Lists: lists, C: c}, nil
}

// ActiveDegree returns the degree of edge e within the instance: the number
// of active edges conflicting with e.
func (in *Instance) ActiveDegree(e graph.EdgeID) int {
	d := 0
	in.G.ForEachEdgeNeighbor(e, func(f graph.EdgeID) {
		if in.Active[f] {
			d++
		}
	})
	return d
}

// Validate checks structural well-formedness and, when slack ≥ 1 is given,
// the slack invariant |Le| > slack·deg_active(e) for every active edge.
// Pass slack 0 to skip the slack check.
func (in *Instance) Validate(slack float64) error {
	if len(in.Active) != in.G.M() || len(in.Lists) != in.G.M() {
		return fmt.Errorf("listcolor: instance arrays sized %d/%d for %d edges", len(in.Active), len(in.Lists), in.G.M())
	}
	for e := range in.Active {
		if !in.Active[e] {
			continue
		}
		l := in.Lists[e]
		if len(l) == 0 {
			return fmt.Errorf("listcolor: active edge %d has empty list", e)
		}
		for i, c := range l {
			if c < 0 || c >= in.C {
				return fmt.Errorf("listcolor: edge %d lists color %d outside palette [0,%d)", e, c, in.C)
			}
			if i > 0 && l[i-1] >= c {
				return fmt.Errorf("listcolor: edge %d list not strictly ascending at %d", e, i)
			}
		}
		if slack > 0 {
			if float64(len(l)) <= slack*float64(in.ActiveDegree(graph.EdgeID(e))) {
				return fmt.Errorf("listcolor: edge %d violates slack %.2f: |L|=%d, deg=%d",
					e, slack, len(l), in.ActiveDegree(graph.EdgeID(e)))
			}
		}
	}
	return nil
}

// contains reports whether the ascending list l contains color c.
func contains(l []int, c int) bool {
	i := sort.SearchInts(l, c)
	return i < len(l) && l[i] == c
}
