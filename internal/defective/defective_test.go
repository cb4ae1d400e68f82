package defective

import (
	"testing"
	"testing/quick"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// checkDefectBound asserts the paper's guarantee on every active edge: the
// number of same-colored conflicting edges is at most
// ⌈du/4β⌉+⌈dv/4β⌉−2 ≤ deg(e)/2β, where degrees are active degrees.
func checkDefectBound(t *testing.T, g *graph.Graph, active []bool, colors []int, beta int) {
	t.Helper()
	adeg := make([]int, g.N())
	for e := 0; e < g.M(); e++ {
		if active == nil || active[e] {
			u, v := g.Endpoints(graph.EdgeID(e))
			adeg[u]++
			adeg[v]++
		}
	}
	for e := 0; e < g.M(); e++ {
		if active != nil && !active[e] {
			if colors[e] != -1 {
				t.Fatalf("inactive edge %d colored %d", e, colors[e])
			}
			continue
		}
		u, v := g.Endpoints(graph.EdgeID(e))
		bound := DefectBound(adeg[u], adeg[v], beta)
		d := 0
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if (active == nil || active[f]) && colors[f] == colors[e] {
				d++
			}
		})
		if d > bound {
			t.Fatalf("edge %d defect %d exceeds bound %d (du=%d dv=%d β=%d)", e, d, bound, adeg[u], adeg[v], beta)
		}
		// The coarser paper form: defect ≤ deg(e)/2β.
		dege := adeg[u] + adeg[v] - 2
		if 2*beta*d > dege {
			t.Fatalf("edge %d defect %d exceeds deg(e)/2β = %d/%d", e, d, dege, 2*beta)
		}
	}
}

func TestColorFamiliesAndBetas(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"complete", graph.Complete(12)},
		{"star", graph.Star(30)},
		{"regular8", graph.RandomRegular(50, 8, 3)},
		{"bipartite", graph.CompleteBipartite(8, 9)},
		{"caterpillar", graph.Caterpillar(8, 6)},
		{"gnp", graph.GNP(60, 0.12, 4)},
	}
	for _, tg := range graphs {
		for _, beta := range []int{1, 2, 4} {
			res, err := ColorGraph(tg.g, nil, beta, local.Sequential)
			if err != nil {
				t.Fatalf("%s β=%d: %v", tg.name, beta, err)
			}
			checkDefectBound(t, tg.g, nil, res.Colors, beta)
			for e, c := range res.Colors {
				if c < 0 || c >= res.Palette {
					t.Fatalf("%s β=%d: edge %d color %d outside palette %d", tg.name, beta, e, c, res.Palette)
				}
			}
			if res.Palette != Palette(beta) {
				t.Fatalf("%s β=%d: palette %d != %d", tg.name, beta, res.Palette, Palette(beta))
			}
		}
	}
}

func TestLargeBetaGivesProperColoring(t *testing.T) {
	// With 4β ≥ max degree every node forms a single group, the defect bound
	// is 0, and the result must be a proper edge coloring.
	g := graph.RandomRegular(40, 6, 9)
	beta := 2 // 4β = 8 ≥ 6
	res, err := ColorGraph(g, nil, beta, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDefect(g, nil, res.Colors); d != 0 {
		t.Fatalf("defect %d, want proper (0)", d)
	}
}

func TestSubgraphActivity(t *testing.T) {
	g := graph.Complete(14)
	active := make([]bool, g.M())
	for e := range active {
		active[e] = e%3 != 0
	}
	res, err := ColorGraph(g, active, 1, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	checkDefectBound(t, g, active, res.Colors, 1)
}

func TestRoundsAreLogStar(t *testing.T) {
	// Rounds must not grow with Δ: defective coloring is O(log* n) only.
	prev := 0
	for _, d := range []int{4, 8, 16} {
		g := graph.RandomRegular(24*d, d, 5)
		res, err := ColorGraph(g, nil, 2, local.Sequential)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rounds > 40 {
			t.Fatalf("Δ=%d: %d rounds, want O(log* n)", d, res.Stats.Rounds)
		}
		prev = res.Stats.Rounds
	}
	_ = prev
}

func TestBetaValidation(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := ColorGraph(g, nil, 0, nil); err == nil {
		t.Fatal("accepted β=0")
	}
}

func TestPaletteFormula(t *testing.T) {
	cases := []struct{ beta, want int }{
		{1, 30},  // 3·4·5/2
		{2, 108}, // 3·8·9/2
		{3, 234}, // 3·12·13/2
	}
	for _, tc := range cases {
		if got := Palette(tc.beta); got != tc.want {
			t.Errorf("Palette(%d) = %d, want %d", tc.beta, got, tc.want)
		}
	}
}

func TestDefectBoundFormula(t *testing.T) {
	// du=dv=8, β=1: ⌈8/4⌉+⌈8/4⌉−2 = 2.
	if got := DefectBound(8, 8, 1); got != 2 {
		t.Fatalf("DefectBound(8,8,1) = %d, want 2", got)
	}
	// Degrees below 4β: single groups, bound 0.
	if got := DefectBound(3, 4, 1); got != 0 {
		t.Fatalf("DefectBound(3,4,1) = %d, want 0", got)
	}
}

func TestMaxDefect(t *testing.T) {
	g := graph.Star(4) // 3 mutually conflicting edges
	colors := []int{5, 5, 7}
	if got := MaxDefect(g, nil, colors); got != 1 {
		t.Fatalf("MaxDefect = %d, want 1", got)
	}
}

func TestEnginesAgree(t *testing.T) {
	g := graph.RandomRegular(30, 6, 8)
	a, err := ColorGraph(g, nil, 1, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ColorGraph(g, nil, 1, local.Sharded(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	for e := range a.Colors {
		if a.Colors[e] != b.Colors[e] {
			t.Fatalf("edge %d: %d vs %d", e, a.Colors[e], b.Colors[e])
		}
	}
}

// Property: the defect bound holds on random graphs for random β.
func TestDefectProperty(t *testing.T) {
	f := func(seed uint64, betaRaw uint8) bool {
		beta := int(betaRaw%4) + 1
		g := graph.GNP(36, 0.18, seed)
		if g.M() == 0 {
			return true
		}
		res, err := ColorGraph(g, nil, beta, local.Sequential)
		if err != nil {
			return false
		}
		adeg := make([]int, g.N())
		for e := 0; e < g.M(); e++ {
			u, v := g.Endpoints(graph.EdgeID(e))
			adeg[u]++
			adeg[v]++
		}
		for e := 0; e < g.M(); e++ {
			u, v := g.Endpoints(graph.EdgeID(e))
			d := 0
			g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
				if res.Colors[f] == res.Colors[e] {
					d++
				}
			})
			if d > DefectBound(adeg[u], adeg[v], beta) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
