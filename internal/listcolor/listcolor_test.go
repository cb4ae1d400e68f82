package listcolor

import (
	"testing"
	"testing/quick"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// properList checks that colors is a proper, list-respecting coloring of the
// instance: every active edge colored from its list, conflicting active edges
// differing, inactive edges uncolored.
func properList(t *testing.T, in *Instance, colors []int) {
	t.Helper()
	g := in.G
	for e := 0; e < g.M(); e++ {
		if !in.Active[e] {
			if colors[e] != -1 {
				t.Fatalf("inactive edge %d got color %d", e, colors[e])
			}
			continue
		}
		c := colors[e]
		if c < 0 {
			t.Fatalf("active edge %d uncolored", e)
		}
		if !contains(in.Lists[e], c) {
			t.Fatalf("edge %d color %d not in its list %v", e, c, in.Lists[e])
		}
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if in.Active[f] && colors[f] == c {
				t.Fatalf("edges %d and %d conflict with color %d", e, f, c)
			}
		})
	}
}

func TestNewUniformSolvesFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(30)},
		{"complete", graph.Complete(8)},
		{"star", graph.Star(10)},
		{"regular", graph.RandomRegular(40, 4, 1)},
		{"bipartite", graph.CompleteBipartite(5, 6)},
		{"tree", graph.RandomTree(50, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := 2*tc.g.MaxDegree() - 1
			in := NewUniform(tc.g, c)
			if err := in.Validate(1); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			colors, stats, err := SolveBase(in, nil, 0, local.Sequential)
			if err != nil {
				t.Fatalf("SolveBase: %v", err)
			}
			properList(t, in, colors)
			if stats.Rounds <= 0 {
				t.Fatal("no rounds recorded")
			}
		})
	}
}

func TestDegreeListsSolve(t *testing.T) {
	g := graph.RandomRegular(36, 5, 3)
	in, err := NewDegreeLists(g, 3*g.MaxEdgeDegree(), 7)
	if err != nil {
		t.Fatalf("NewDegreeLists: %v", err)
	}
	if err := in.Validate(1); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	colors, _, err := SolveBase(in, nil, 0, local.Sequential)
	if err != nil {
		t.Fatalf("SolveBase: %v", err)
	}
	properList(t, in, colors)
}

func TestDegreeListsRejectsSmallPalette(t *testing.T) {
	g := graph.Complete(5)
	if _, err := NewDegreeLists(g, g.MaxEdgeDegree(), 1); err == nil {
		t.Fatal("accepted palette ≤ Δ̄")
	}
}

func TestPartialInstance(t *testing.T) {
	// Only even-ID edges active: lists must beat the ACTIVE degree only.
	g := graph.Complete(7)
	in := NewUniform(g, 2*g.MaxDegree()-1)
	for e := 0; e < g.M(); e++ {
		if e%2 == 1 {
			in.Active[e] = false
		}
	}
	colors, _, err := SolveBase(in, nil, 0, local.Sequential)
	if err != nil {
		t.Fatalf("SolveBase: %v", err)
	}
	properList(t, in, colors)
}

func TestSolveBaseWithInitialColoring(t *testing.T) {
	g := graph.RandomRegular(30, 4, 9)
	in := NewUniform(g, 2*g.MaxDegree()-1)
	// Hand down edge IDs as the "initial X-coloring".
	init := make([]int, g.M())
	for e := range init {
		init[e] = e
	}
	colors, _, err := SolveBase(in, init, g.M(), local.Sequential)
	if err != nil {
		t.Fatalf("SolveBase: %v", err)
	}
	properList(t, in, colors)
}

func TestSolveBaseEnginesAgree(t *testing.T) {
	g := graph.RandomRegular(28, 4, 5)
	in := NewUniform(g, 2*g.MaxDegree()-1)
	a, sa, err := SolveBase(in, nil, 0, local.Sequential)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	b, sb, err := SolveBase(in, nil, 0, local.Sharded(3))
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if sa != sb {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	for e := range a {
		if a[e] != b[e] {
			t.Fatalf("edge %d: %d vs %d", e, a[e], b[e])
		}
	}
}

func TestGreedySequentialOracle(t *testing.T) {
	g := graph.GNP(40, 0.15, 13)
	in := NewUniform(g, 2*g.MaxDegree()-1)
	colors, err := GreedySequential(in)
	if err != nil {
		t.Fatalf("GreedySequential: %v", err)
	}
	properList(t, in, colors)
}

func TestGreedySequentialStuckDetection(t *testing.T) {
	// Two conflicting edges with identical singleton lists: unsolvable.
	g := graph.Path(3)
	in := &Instance{
		G:      g,
		Active: []bool{true, true},
		Lists:  [][]int{{0}, {0}},
		C:      1,
	}
	if _, err := GreedySequential(in); err == nil {
		t.Fatal("greedy succeeded on unsolvable instance")
	}
}

func TestValidateCatchesSlackViolation(t *testing.T) {
	g := graph.Path(3) // two edges conflicting
	in := &Instance{
		G:      g,
		Active: []bool{true, true},
		Lists:  [][]int{{0}, {1}}, // size 1 = deg, needs > deg
		C:      2,
	}
	if err := in.Validate(1); err == nil {
		t.Fatal("Validate accepted slack violation")
	}
	if err := in.Validate(0); err != nil {
		t.Fatalf("Validate(0) should skip slack: %v", err)
	}
}

func TestValidateCatchesBadLists(t *testing.T) {
	g := graph.Path(2)
	for _, tc := range []struct {
		name  string
		lists [][]int
		c     int
	}{
		{"empty", [][]int{{}}, 3},
		{"out of range", [][]int{{5}}, 3},
		{"descending", [][]int{{2, 1}}, 3},
		{"duplicate", [][]int{{1, 1}}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := &Instance{G: g, Active: []bool{true}, Lists: tc.lists, C: tc.c}
			if err := in.Validate(0); err == nil {
				t.Fatal("Validate accepted malformed instance")
			}
		})
	}
}

func TestActiveDegree(t *testing.T) {
	g := graph.Star(5) // 4 edges, all pairwise conflicting
	in := NewUniform(g, 7)
	if got := in.ActiveDegree(0); got != 3 {
		t.Fatalf("ActiveDegree = %d, want 3", got)
	}
	in.Active[1] = false
	in.Active[2] = false
	if got := in.ActiveDegree(0); got != 1 {
		t.Fatalf("ActiveDegree after deactivation = %d, want 1", got)
	}
}

// Property: SolveBase and GreedySequential both succeed and agree with the
// instance contract on random graphs with random degree+1 lists.
func TestSolveBaseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNP(24, 0.15, seed)
		if g.M() < 2 {
			return true
		}
		in, err := NewDegreeLists(g, g.MaxEdgeDegree()+8, seed)
		if err != nil {
			return false
		}
		colors, _, err := SolveBase(in, nil, 0, local.Sequential)
		if err != nil {
			return false
		}
		for e := 0; e < g.M(); e++ {
			if colors[e] < 0 || !contains(in.Lists[e], colors[e]) {
				return false
			}
			bad := false
			g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
				if colors[f] == colors[e] {
					bad = true
				}
			})
			if bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The round count of the base solver must be O(Δ̄² + log*): the greedy phase
// is bounded by the Linial fixpoint K = O(Δ̄²).
func TestSolveBaseRoundBound(t *testing.T) {
	g := graph.RandomRegular(60, 4, 21)
	in := NewUniform(g, 2*g.MaxDegree()-1)
	_, stats, err := SolveBase(in, nil, 0, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	dbar := g.MaxEdgeDegree()
	bound := 9*(dbar+1)*(dbar+1) + 30 // K + plan length envelope
	if stats.Rounds > bound {
		t.Fatalf("rounds %d > envelope %d", stats.Rounds, bound)
	}
}
