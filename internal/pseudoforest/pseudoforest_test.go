package pseudoforest

import (
	"testing"
	"testing/quick"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
)

func uniformLists(g *graph.Graph, c int) [][]int {
	palette := make([]int, c)
	for i := range palette {
		palette[i] = i
	}
	lists := make([][]int, g.M())
	for e := range lists {
		lists[e] = palette
	}
	return lists
}

func checkProperList(t *testing.T, g *graph.Graph, active []bool, lists [][]int, colors []int) {
	t.Helper()
	for e := 0; e < g.M(); e++ {
		if active != nil && !active[e] {
			if colors[e] != -1 {
				t.Fatalf("inactive edge %d colored", e)
			}
			continue
		}
		if colors[e] < 0 {
			t.Fatalf("edge %d uncolored", e)
		}
		inList := false
		for _, c := range lists[e] {
			if c == colors[e] {
				inList = true
			}
		}
		if !inList {
			t.Fatalf("edge %d color %d not in list", e, colors[e])
		}
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if (active == nil || active[f]) && colors[f] == colors[e] {
				t.Fatalf("edges %d and %d share color %d", e, f, colors[e])
			}
		})
	}
}

func TestSolveFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(50)},
		{"path", graph.Path(20)},
		{"complete", graph.Complete(9)},
		{"star", graph.Star(15)},
		{"regular6", graph.RandomRegular(40, 6, 3)},
		{"bipartite", graph.CompleteBipartite(6, 7)},
		{"gnp", graph.GNP(50, 0.12, 5)},
		{"tree", graph.RandomTree(60, 6)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := 2*tc.g.MaxDegree() - 1
			lists := uniformLists(tc.g, c)
			colors, stats, err := Solve(tc.g, nil, lists, local.Sequential)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			checkProperList(t, tc.g, nil, lists, colors)
			if stats.Rounds <= 0 {
				t.Fatal("no rounds")
			}
		})
	}
}

func TestSolveDegreeLists(t *testing.T) {
	g := graph.RandomRegular(36, 6, 8)
	in, err := listcolor.NewDegreeLists(g, 2*g.MaxEdgeDegree(), 4)
	if err != nil {
		t.Fatal(err)
	}
	colors, _, err := Solve(g, nil, in.Lists, local.Sequential)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	checkProperList(t, g, nil, in.Lists, colors)
}

func TestSolvePartial(t *testing.T) {
	g := graph.Complete(10)
	active := make([]bool, g.M())
	for e := range active {
		active[e] = e%4 != 0
	}
	lists := uniformLists(g, 2*g.MaxDegree()-1)
	colors, _, err := Solve(g, active, lists, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	checkProperList(t, g, active, lists, colors)
}

func TestRoundsLinearInDelta(t *testing.T) {
	// The defining property of the baseline: rounds grow linearly in Δ and
	// only like log* in n.
	r8 := mustRounds(t, graph.RandomRegular(64, 8, 1))
	r16 := mustRounds(t, graph.RandomRegular(64, 16, 1))
	r32 := mustRounds(t, graph.RandomRegular(64, 32, 1))
	if r16 <= r8 || r32 <= r16 {
		t.Fatalf("rounds not increasing in Δ: %d, %d, %d", r8, r16, r32)
	}
	// Roughly linear: r32−r16 should be around 2× of r16−r8 (CV part constant).
	g1 := r16 - r8
	g2 := r32 - r16
	if g2 < g1 || g2 > 4*g1 {
		t.Fatalf("growth not ~linear: increments %d then %d", g1, g2)
	}
	// n-dependence is log*: doubling n adds at most a couple of rounds.
	rBig := mustRounds(t, graph.RandomRegular(256, 8, 1))
	if rBig > r8+6 {
		t.Fatalf("rounds grew with n: %d (n=64) vs %d (n=256)", r8, rBig)
	}
}

func mustRounds(t *testing.T, g *graph.Graph) int {
	t.Helper()
	lists := uniformLists(g, 2*g.MaxDegree()-1)
	colors, stats, err := Solve(g, nil, lists, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	checkProperList(t, g, nil, lists, colors)
	return stats.Rounds
}

func TestEnginesAgree(t *testing.T) {
	g := graph.RandomRegular(30, 5, 2)
	lists := uniformLists(g, 2*g.MaxDegree()-1)
	a, sa, err := Solve(g, nil, lists, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := Solve(g, nil, lists, local.Sharded(3))
	if err != nil {
		t.Fatal(err)
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

func TestRejectsSlackViolation(t *testing.T) {
	g := graph.Star(4)
	lists := [][]int{{0}, {1}, {2}} // size 1 ≤ deg 2
	if _, _, err := Solve(g, nil, lists, nil); err == nil {
		t.Fatal("accepted slack violation")
	}
}

func TestCVSchedule(t *testing.T) {
	seq := cvSchedule(1 << 20)
	if len(seq) == 0 || len(seq) > 8 {
		t.Fatalf("schedule length %d, want small log*", len(seq))
	}
	if seq[len(seq)-1] != 6 {
		t.Fatalf("schedule ends at %d, want 6", seq[len(seq)-1])
	}
	prev := 1 << 20
	for _, k := range seq {
		if k >= prev {
			t.Fatalf("schedule not decreasing: %v", seq)
		}
		prev = k
	}
	if got := cvSchedule(5); len(got) != 0 {
		t.Fatalf("cvSchedule(5) = %v, want empty", got)
	}
}

func TestBits(t *testing.T) {
	cases := []struct{ in, want int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10},
	}
	for _, tc := range cases {
		if got := bits(tc.in); got != tc.want {
			t.Errorf("bits(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// Property: random sparse graphs with (deg+1)-lists are always solved.
func TestSolveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNP(28, 0.18, seed)
		if g.M() < 2 {
			return true
		}
		in, err := listcolor.NewDegreeLists(g, g.MaxEdgeDegree()+6, seed^0x9e37)
		if err != nil {
			return false
		}
		colors, _, err := Solve(g, nil, in.Lists, local.Sequential)
		if err != nil {
			return false
		}
		for e := 0; e < g.M(); e++ {
			if colors[e] < 0 {
				return false
			}
			conflict := false
			g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
				if colors[f] == colors[e] {
					conflict = true
				}
			})
			if conflict {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
