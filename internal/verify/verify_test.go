package verify

import (
	"strings"
	"testing"

	"github.com/distec/distec/internal/defective"
	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/pseudoforest"
)

func TestEdgeColoring(t *testing.T) {
	g := graph.Path(4) // edges 0-1, 1-2, 2-3
	if err := EdgeColoring(g, nil, []int{0, 1, 0}); err != nil {
		t.Fatalf("valid coloring rejected: %v", err)
	}
	if err := EdgeColoring(g, nil, []int{0, 0, 1}); err == nil {
		t.Fatal("conflict not detected")
	}
	if err := EdgeColoring(g, nil, []int{0, -1, 1}); err == nil {
		t.Fatal("uncolored edge not detected")
	}
	active := []bool{true, false, true}
	if err := EdgeColoring(g, active, []int{0, -1, 0}); err != nil {
		t.Fatalf("inactive edges must be ignored: %v", err)
	}
}

func TestListRespecting(t *testing.T) {
	g := graph.Path(3)
	lists := [][]int{{1, 3}, {2, 4}}
	if err := ListRespecting(g, nil, lists, []int{3, 2}); err != nil {
		t.Fatalf("valid: %v", err)
	}
	if err := ListRespecting(g, nil, lists, []int{3, 5}); err == nil {
		t.Fatal("off-list color not detected")
	}
}

func TestDefective(t *testing.T) {
	g := graph.Star(4)
	colors := []int{1, 1, 2}
	if err := Defective(g, nil, colors, func(graph.EdgeID) int { return 1 }); err != nil {
		t.Fatalf("defect 1 within bound 1: %v", err)
	}
	if err := Defective(g, nil, colors, func(graph.EdgeID) int { return 0 }); err == nil {
		t.Fatal("defect 1 over bound 0 not detected")
	}
}

func TestCounting(t *testing.T) {
	colors := []int{3, 1, 3, -1, 0}
	if got := CountColors(colors); got != 3 {
		t.Fatalf("CountColors = %d, want 3", got)
	}
	if err := PaletteRespected(colors, 4); err != nil {
		t.Fatalf("palette 4 should pass: %v", err)
	}
	if err := PaletteRespected(colors, 3); err == nil {
		t.Fatal("palette 3 should fail")
	}
}

// linialAlg adapts the Linial reduction for the locality checker.
func linialAlg(g *graph.Graph) ([]int, int, error) {
	tp := local.EdgeConflict(g)
	init := make([]int, tp.N())
	for i := range init {
		init[i] = i
	}
	colors, stats, err := linial.Reduce(tp, init, tp.N(), local.Sequential)
	return colors, stats.Rounds, err
}

func TestLocalityOfLinial(t *testing.T) {
	// A long cycle: small balls, plenty of far edges to rewire.
	g := graph.Cycle(64)
	for _, probe := range []graph.EdgeID{0, 17, 40} {
		if err := CheckLocality(g, linialAlg, probe, 6, 99); err != nil {
			t.Fatalf("probe %d: %v", probe, err)
		}
	}
}

func TestLocalityOfDefective(t *testing.T) {
	g := graph.Cycle(80)
	alg := func(h *graph.Graph) ([]int, int, error) {
		res, err := defective.ColorGraph(h, nil, 1, local.Sequential)
		if err != nil {
			return nil, 0, err
		}
		return res.Colors, res.Stats.Rounds, nil
	}
	if err := CheckLocality(g, alg, 3, 6, 7); err != nil {
		t.Fatal(err)
	}
}

// cheatingAlg claims 1 round but reads global structure: the falsifier must
// catch it. The global read is Σ u·v over all edges, which any rewire
// {a,b},{c,d} → {a,d},{c,b} changes (the difference is (a−c)(b−d) ≠ 0).
func TestLocalityCatchesCheater(t *testing.T) {
	g := graph.Cycle(64)
	cheat := func(h *graph.Graph) ([]int, int, error) {
		sum := 0
		for e := 0; e < h.M(); e++ {
			u, v := h.Endpoints(graph.EdgeID(e))
			sum += u * v
		}
		out := make([]int, h.M())
		for e := range out {
			out[e] = sum
		}
		return out, 1, nil
	}
	err := CheckLocality(g, cheat, 0, 10, 5)
	if err == nil {
		t.Fatal("cheating algorithm passed the locality check")
	}
	if !strings.Contains(err.Error(), "locality violated") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRewirePreservesInvariants(t *testing.T) {
	g := graph.Cycle(20)
	h, ok := rewire(g, 2, 11)
	if !ok {
		t.Fatal("rewire refused a valid far pair")
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatal("rewire changed n or m")
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != h.Degree(v) {
			t.Fatalf("degree of node %d changed", v)
		}
	}
}

func TestRewireRejectsSharedNodes(t *testing.T) {
	g := graph.Cycle(10)
	if _, ok := rewire(g, 0, 1); ok {
		t.Fatal("rewire accepted adjacent edges")
	}
	if _, ok := rewire(g, 3, 3); ok {
		t.Fatal("rewire accepted identical edges")
	}
}

// Locality of the PR01 pseudoforest baseline: its round count on a long
// cycle is O(log* n + Δ) = small, so most of the cycle is rewirable.
func TestLocalityOfPseudoforest(t *testing.T) {
	g := graph.Cycle(400)
	lists := make([][]int, g.M())
	for e := range lists {
		lists[e] = []int{0, 1, 2}
	}
	alg := func(h *graph.Graph) ([]int, int, error) {
		colors, stats, err := pseudoforest.Solve(h, nil, lists, local.Sequential)
		return colors, stats.Rounds, err
	}
	if err := CheckLocality(g, alg, 5, 4, 11); err != nil {
		t.Fatal(err)
	}
}
