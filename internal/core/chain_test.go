package core

import (
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// newTestSolver builds a Solver with the global initial coloring prepared
// and the instance of all items, for white-box tests of the internal lemma
// implementations. Member k of the instance is item k.
func newTestSolver(t *testing.T, pairs [][2]int64, lists [][]int, c int, params Params) (*Solver, instance) {
	t.Helper()
	s, inst, err := newSolver(pairs, nil, lists, c, params, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.prepare(inst, len(pairs)); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return s, inst
}

// TestSolveSlackSStrictHighSlack drives the Lemma 4.5 chain directly in
// strict mode on an instance with ample slack: with full palette lists and
// tiny degrees the whole chain must run without a single deferral or
// assertion failure, and the result must be a proper list coloring.
func TestSolveSlackSStrictHighSlack(t *testing.T) {
	g := graph.RandomRegular(32, 4, 5) // deg(e)=6, lists of 64 ≫ slack bound
	pairs := local.GraphPairs(g)
	c := 64
	palette := make([]int, c)
	for i := range palette {
		palette[i] = i
	}
	lists := make([][]int, g.M())
	for e := range lists {
		lists[e] = palette
	}
	params := Practical()
	params.Strict = true
	s, inst := newTestSolver(t, pairs, lists, c, params)
	colors, stats, err := s.solveSlackS(inst, 0)
	if err != nil {
		t.Fatalf("solveSlackS strict: %v", err)
	}
	if stats.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
	for e := 0; e < g.M(); e++ {
		if colors[e] < 0 {
			t.Fatalf("edge %d deferred in strict mode", e)
		}
		if colors[e] >= c {
			t.Fatalf("edge %d color %d outside palette", e, colors[e])
		}
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if colors[f] == colors[e] {
				t.Fatalf("edges %d and %d conflict", e, f)
			}
		})
	}
	if s.trace.ChainLevels == 0 {
		t.Fatal("chain never ran")
	}
}

// TestSolveSlackSDefersPracticalTightSlack hands the chain an instance with
// barely any slack; practical mode must defer rather than fail, and every
// colored edge must still be consistent.
func TestSolveSlackSDefersPracticalTightSlack(t *testing.T) {
	g := graph.Complete(12) // deg(e)=20
	pairs := local.GraphPairs(g)
	c := 24 // lists of 21..24 colors: almost no slack for a chain
	lists := make([][]int, g.M())
	for e := range lists {
		deg := g.EdgeDegree(graph.EdgeID(e))
		l := make([]int, deg+2)
		for i := range l {
			l[i] = i
		}
		lists[e] = l
	}
	s, inst := newTestSolver(t, pairs, lists, c, Practical())
	colors, _, err := s.solveSlackS(inst, 0)
	if err != nil {
		t.Fatalf("practical chain must not error: %v", err)
	}
	colored := 0
	for e := 0; e < g.M(); e++ {
		if colors[e] < 0 {
			continue
		}
		colored++
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if colors[f] == colors[e] {
				t.Fatalf("edges %d and %d conflict", e, f)
			}
		})
	}
	// Tight slack: deferrals are expected, but they must be recorded.
	if colored < g.M() && s.trace.Deferred == 0 {
		t.Fatal("uncolored edges but no deferral recorded")
	}
}

// TestSolveSlack1OnVirtualStylePairs runs the full Lemma 4.2 machinery on a
// pair system that is NOT a simple graph (multi-links), as the virtual
// recursion produces.
func TestSolveSlack1OnVirtualStylePairs(t *testing.T) {
	// Items: a 4-cycle of keys with one doubled link.
	pairs := [][2]int64{{0, 1}, {0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 2}}
	m := len(pairs)
	c := 8
	lists := make([][]int, m)
	for i := range lists {
		lists[i] = []int{0, 1, 2, 3, 4, 5, 6, 7}
	}
	s, inst := newTestSolver(t, pairs, lists, c, Practical())
	colors, _, err := s.solveSlack1(inst, 0)
	if err != nil {
		t.Fatalf("solveSlack1: %v", err)
	}
	for i := 0; i < m; i++ {
		if colors[i] < 0 {
			t.Fatalf("item %d uncolored", i)
		}
		for j := i + 1; j < m; j++ {
			shares := pairs[i][0] == pairs[j][0] || pairs[i][0] == pairs[j][1] ||
				pairs[i][1] == pairs[j][0] || pairs[i][1] == pairs[j][1]
			if shares && colors[i] == colors[j] {
				t.Fatalf("items %d and %d share a key and color %d", i, j, colors[i])
			}
		}
	}
}

// TestDeferralsAlwaysRecover: on a battery of dense graphs the practical
// preset may defer edges mid-recursion, but Solve must still color
// everything (the invariant |Le| > deg_uncolored(e) of Params.Strict).
func TestDeferralsAlwaysRecover(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"complete16", graph.Complete(16)},
		{"dense-gnp", graph.GNP(48, 0.4, 9)},
		{"regular-high", graph.RandomRegular(64, 24, 4)},
		{"bipartite", graph.CompleteBipartite(12, 12)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pairs := local.GraphPairs(tc.g)
			c := 2*tc.g.MaxDegree() - 1
			palette := make([]int, c)
			for i := range palette {
				palette[i] = i
			}
			lists := make([][]int, tc.g.M())
			for e := range lists {
				lists[e] = palette
			}
			res, err := Solve(pairs, nil, lists, c, Practical(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < tc.g.M(); e++ {
				if res.Colors[e] < 0 {
					t.Fatalf("edge %d uncolored despite %d deferrals", e, res.Trace.Deferred)
				}
			}
		})
	}
}

func TestPresetValidation(t *testing.T) {
	if err := (Params{}).validate(); err == nil {
		t.Fatal("zero params accepted")
	}
	p := Practical()
	p.BaseDegree = 0
	if err := p.validate(); err == nil {
		t.Fatal("BaseDegree 0 accepted")
	}
	p = Practical()
	p.StopPalette = 1
	if err := p.validate(); err == nil {
		t.Fatal("StopPalette 1 accepted")
	}
	p = Practical()
	p.MaxDepth = 0
	if err := p.validate(); err == nil {
		t.Fatal("MaxDepth 0 accepted")
	}
	if err := Practical().validate(); err != nil {
		t.Fatalf("Practical invalid: %v", err)
	}
	if err := Theory(1, 1).validate(); err != nil {
		t.Fatalf("Theory invalid: %v", err)
	}
}

func TestTheoryBetaGrowth(t *testing.T) {
	p := Theory(1, 1)
	// β = ⌈log₂⁴ Δ̄⌉: spot values.
	if got := p.Beta(16, 0); got != 256 {
		t.Fatalf("Beta(16) = %d, want 256 (= 4^4)", got)
	}
	if got := p.Beta(2, 0); got != 1 {
		t.Fatalf("Beta(2) = %d, want 1", got)
	}
	// p = ⌈√Δ̄⌉.
	if got := p.P(100, 0); got != 10 {
		t.Fatalf("P(100) = %d, want 10", got)
	}
}
