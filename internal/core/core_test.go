package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
)

// verifySolution checks that res is a proper, list-respecting coloring of
// the instance with every active edge colored.
func verifySolution(t *testing.T, in *listcolor.Instance, res *Result) {
	t.Helper()
	g := in.G
	for e := 0; e < g.M(); e++ {
		if !in.Active[e] {
			if res.Colors[e] != -1 {
				t.Fatalf("inactive edge %d colored %d", e, res.Colors[e])
			}
			continue
		}
		c := res.Colors[e]
		if c < 0 {
			t.Fatalf("active edge %d uncolored", e)
		}
		found := false
		for _, lc := range in.Lists[e] {
			if lc == c {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("edge %d color %d not in list %v", e, c, in.Lists[e])
		}
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if in.Active[f] && res.Colors[f] == c {
				t.Fatalf("edges %d and %d conflict on color %d", e, f, c)
			}
		})
	}
}

func TestSolvePracticalOnFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(40)},
		{"complete", graph.Complete(10)},
		{"star", graph.Star(20)},
		{"regular6", graph.RandomRegular(48, 6, 1)},
		{"regular12", graph.RandomRegular(60, 12, 2)},
		{"bipartite", graph.CompleteBipartite(7, 8)},
		{"caterpillar", graph.Caterpillar(10, 5)},
		{"gnp", graph.GNP(60, 0.15, 3)},
		{"powerlaw", graph.PowerLaw(70, 2.5, 20, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := 2*tc.g.MaxDegree() - 1
			if c < 1 {
				t.Skip("degenerate")
			}
			in := listcolor.NewUniform(tc.g, c)
			res, err := SolveGraph(in, Practical(), local.Sequential)
			if err != nil {
				t.Fatalf("SolveGraph: %v", err)
			}
			verifySolution(t, in, res)
			if res.Stats.Rounds <= 0 {
				t.Fatal("no rounds recorded")
			}
		})
	}
}

func TestSolveTheoryPresetCorrect(t *testing.T) {
	// At feasible Δ̄ the theory parameters bail to the base solver — the
	// honest behavior of the paper's constants (E9) — and the result must
	// still be a valid coloring, with the bailout recorded.
	g := graph.RandomRegular(50, 8, 7)
	in := listcolor.NewUniform(g, 2*g.MaxDegree()-1)
	res, err := SolveGraph(in, Theory(1, 1), local.Sequential)
	if err != nil {
		t.Fatalf("SolveGraph: %v", err)
	}
	verifySolution(t, in, res)
	if res.Trace.BetaBailouts == 0 {
		t.Fatal("theory preset at Δ̄=14 did not record a β bailout")
	}
}

func TestSolveDegreeLists(t *testing.T) {
	// Adversarial-style (deg(e)+1)-size random lists.
	g := graph.RandomRegular(40, 8, 9)
	in, err := listcolor.NewDegreeLists(g, 2*g.MaxEdgeDegree(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveGraph(in, Practical(), local.Sequential)
	if err != nil {
		t.Fatalf("SolveGraph: %v", err)
	}
	verifySolution(t, in, res)
}

func TestSolvePartialInstance(t *testing.T) {
	g := graph.Complete(12)
	in := listcolor.NewUniform(g, 2*g.MaxDegree()-1)
	for e := 0; e < g.M(); e += 3 {
		in.Active[e] = false
	}
	res, err := SolveGraph(in, Practical(), local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	verifySolution(t, in, res)
}

func TestSolveExercisesMachinery(t *testing.T) {
	// A graph big enough that practical parameters run sweeps, defective
	// colorings and chain levels rather than bailing straight to base.
	g := graph.RandomRegular(64, 16, 5)
	in := listcolor.NewUniform(g, 2*g.MaxDegree()-1)
	res, err := SolveGraph(in, Practical(), local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	verifySolution(t, in, res)
	tr := res.Trace
	if tr.OuterSweeps == 0 || tr.DefectiveCalls == 0 {
		t.Fatalf("machinery not exercised: %+v", tr)
	}
	if tr.ClassInstances == 0 || tr.ChainLevels == 0 {
		t.Fatalf("no class instances or chain levels: %+v", tr)
	}
}

func TestFigure5Exact(t *testing.T) {
	// Figure 5 of the paper: C = 20, p = 4, list {1,2,5,6,7,12,17}
	// (1-based) → counts (3,2,1,1), Lemma 4.4 gives k = 2 with I = {C1, C2}.
	pt := MakePartition(20, 4)
	if pt.PartSize != 5 || pt.Q != 4 {
		t.Fatalf("partition = %+v, want PartSize=5 Q=4", pt)
	}
	// 1-based colors {1,2,5,6,7,12,17} are 0-based offsets {0,1,4,5,6,11,16}.
	offsets := []int{0, 1, 4, 5, 6, 11, 16}
	counts := pt.Counts(offsets)
	wantCounts := []int{3, 2, 1, 1}
	for i := range wantCounts {
		if counts[i] != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", counts, wantCounts)
		}
	}
	k, indices, ok := BestK(counts, len(offsets))
	if !ok || k != 2 {
		t.Fatalf("BestK = %d (ok=%v), want 2 — paper's I={1,2}", k, ok)
	}
	if len(indices) != 2 || indices[0] != 0 || indices[1] != 1 {
		t.Fatalf("indices = %v, want [0 1] (the paper's C1, C2)", indices)
	}
	// The figure's threshold: |Le|/(k·H4) = 7/(2·2.0833…) ≈ 1.68, so parts
	// of size ≥ 2 qualify.
	h4 := Harmonic(4)
	threshold := 7 / (2 * h4)
	if threshold < 1.67 || threshold > 1.69 {
		t.Fatalf("threshold = %f, want ≈1.68", threshold)
	}
}

// Lemma 4.4 as a property: for any list over any partition, BestK finds a
// valid k whose indices all meet the bound |L∩Ci| ≥ |L|/(k·Hq).
func TestLemma44Property(t *testing.T) {
	f := func(seed uint64, pRaw, sizeRaw uint8) bool {
		size := int(sizeRaw%200) + 2
		p := int(pRaw)%(size-1) + 2
		pt := MakePartition(size, p)
		// Pseudo-random list of offsets.
		s := seed
		var offsets []int
		for o := 0; o < size; o++ {
			s = s*6364136223846793005 + 1442695040888963407
			if s%3 == 0 {
				offsets = append(offsets, o)
			}
		}
		if len(offsets) == 0 {
			offsets = []int{int(seed) % size}
			if offsets[0] < 0 {
				offsets[0] = 0
			}
		}
		counts := pt.Counts(offsets)
		k, indices, ok := BestK(counts, len(offsets))
		if !ok || k < 1 || len(indices) != k {
			return false
		}
		hq := Harmonic(pt.Q)
		for _, j := range indices {
			if float64(counts[j])*float64(k)*hq+1e-6 < float64(len(offsets)) {
				return false
			}
		}
		// Level existence follows from Lemma 4.4.
		if _, ok := Level(counts, len(offsets)); !ok {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBounds(t *testing.T) {
	pt := MakePartition(20, 6) // ps=4, q=5
	if pt.PartSize != 4 || pt.Q != 5 {
		t.Fatalf("partition %+v", pt)
	}
	lo, hi := pt.PartBounds(4)
	if lo != 16 || hi != 20 {
		t.Fatalf("PartBounds(4) = [%d,%d), want [16,20)", lo, hi)
	}
	// Ragged last part.
	pt = MakePartition(10, 4) // ps=3, q=4: parts 3,3,3,1
	lo, hi = pt.PartBounds(3)
	if lo != 9 || hi != 10 {
		t.Fatalf("ragged PartBounds(3) = [%d,%d), want [9,10)", lo, hi)
	}
}

func TestSpaceReduceOnceEq2(t *testing.T) {
	// E6's core assertion: one space reduction respects Eq. (2) on a
	// uniform instance with ample slack. Degree must exceed q so that
	// perfect subspace spreading is impossible and the E(1) phases engage.
	g := graph.RandomRegular(64, 24, 3)
	pairs := local.GraphPairs(g)
	c := 256
	palette := make([]int, c)
	for i := range palette {
		palette[i] = i
	}
	lists := make([][]int, g.M())
	for e := range lists {
		lists[e] = palette
	}
	params := Practical()
	params.Strict = true // assert Eq. (2) per edge
	res, err := SpaceReduceOnce(pairs, nil, lists, c, 16, params, local.Sequential)
	if err != nil {
		t.Fatalf("SpaceReduceOnce: %v", err)
	}
	for e, j := range res.Assign {
		if j < 0 {
			t.Fatalf("edge %d not assigned", e)
		}
	}
	bound := 24 * Harmonic(res.Partition.Q) * math.Max(1, math.Log2(16))
	if res.Trace.Eq2Worst > bound {
		t.Fatalf("worst Eq2 factor %.3f exceeds bound %.3f", res.Trace.Eq2Worst, bound)
	}
	if res.Trace.Eq2Worst <= 0 {
		t.Fatal("no Eq2 factor measured")
	}
}

func TestSpaceReduceAblationWorse(t *testing.T) {
	// E13: the direct (no phases) ablation must degrade Eq. (2) at least as
	// much as the phased assignment on an adversarial instance where many
	// conflicting edges share the same best subspace.
	g := graph.CompleteBipartite(24, 24)
	pairs := local.GraphPairs(g)
	c := 256
	lists := make([][]int, g.M())
	palette := make([]int, c)
	for i := range palette {
		palette[i] = i
	}
	for e := range lists {
		lists[e] = palette
	}
	phased := Practical()
	direct := Practical()
	direct.DirectAssignment = true
	rp, err := SpaceReduceOnce(pairs, nil, lists, c, 16, phased, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := SpaceReduceOnce(pairs, nil, lists, c, 16, direct, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	// With identical full lists every edge's best subspace is part 0, so
	// the direct variant assigns everyone the same subspace: deg' = deg.
	if rd.Trace.Eq2Worst < rp.Trace.Eq2Worst {
		t.Fatalf("ablation (%.3f) unexpectedly better than phased (%.3f)", rd.Trace.Eq2Worst, rp.Trace.Eq2Worst)
	}
}

func TestEnginesAgreeOnSolve(t *testing.T) {
	g := graph.RandomRegular(36, 8, 13)
	in := listcolor.NewUniform(g, 2*g.MaxDegree()-1)
	a, err := SolveGraph(in, Practical(), local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveGraph(in, Practical(), local.Sharded(3))
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

func TestSolveRejectsBadInput(t *testing.T) {
	g := graph.Star(4)
	pairs := local.GraphPairs(g)
	lists := [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}
	if _, err := Solve(pairs, nil, [][]int{{0}}, 3, Practical(), nil); err == nil {
		t.Fatal("accepted wrong-length lists")
	}
	if _, err := Solve(pairs, nil, [][]int{{0}, {1}, {2}}, 3, Practical(), nil); err == nil {
		t.Fatal("accepted slack violation (|L|=1 ≤ deg=2)")
	}
	bad := [][]int{{0, 5, 2}, {0, 1, 2}, {0, 1, 2}}
	if _, err := Solve(pairs, nil, bad, 3, Practical(), nil); err == nil {
		t.Fatal("accepted non-ascending list")
	}
	if _, err := Solve(pairs, nil, lists, 2, Practical(), nil); err == nil {
		t.Fatal("accepted out-of-palette color")
	}
	var empty Params
	if _, err := Solve(pairs, nil, lists, 3, empty, nil); err == nil {
		t.Fatal("accepted zero-value Params")
	}
}

// Property: Solve produces valid colorings on random graphs and random
// (deg+1)-lists.
func TestSolveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNP(30, 0.2, seed)
		if g.M() < 2 {
			return true
		}
		in, err := listcolor.NewDegreeLists(g, g.MaxEdgeDegree()+10, seed^0xabcdef)
		if err != nil {
			return false
		}
		res, err := SolveGraph(in, Practical(), local.Sequential)
		if err != nil {
			return false
		}
		for e := 0; e < g.M(); e++ {
			if res.Colors[e] < 0 {
				return false
			}
			ok := false
			for _, c := range in.Lists[e] {
				if c == res.Colors[e] {
					ok = true
				}
			}
			if !ok {
				return false
			}
			conflict := false
			g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
				if res.Colors[f] == res.Colors[e] {
					conflict = true
				}
			})
			if conflict {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// The uncolored remainder of each Lemma 4.2 sweep must shrink; the trace's
// sweep count is the observable: it must stay well below the 64 guard on a
// graph where several sweeps run.
func TestSweepsBounded(t *testing.T) {
	g := graph.RandomRegular(80, 20, 17)
	in := listcolor.NewUniform(g, 2*g.MaxDegree()-1)
	res, err := SolveGraph(in, Practical(), local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	verifySolution(t, in, res)
	if res.Trace.OuterSweeps >= 30 {
		t.Fatalf("outer sweeps %d suspiciously high (degree halving broken?)", res.Trace.OuterSweeps)
	}
}
