package core

import (
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// TestE2PathEngages crafts an instance where the E(2) case of Lemma 4.3
// fires: high levels (many rich subspaces) but degrees below 2^ℓ. A sparse
// regular graph with full lists over many subspaces does it: every edge has
// level = ⌊log₂ q⌋ while deg(e) is small.
func TestE2PathEngages(t *testing.T) {
	g := graph.RandomRegular(64, 4, 3) // deg(e) = 6 < 2^4
	pairs := local.GraphPairs(g)
	c := 512
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
	res, err := SpaceReduceOnce(pairs, nil, lists, c, 32, params, local.Sequential)
	if err != nil {
		t.Fatalf("SpaceReduceOnce: %v", err)
	}
	if res.Trace.E2Instances == 0 {
		t.Fatalf("E(2) never engaged: trace %+v", res.Trace)
	}
	// E(2) edges end with deg' = 0: no conflicting edge shares their
	// subspace (paper: "we get deg′(e) = 0").
	sideCnt := make(map[[2]int64]int)
	for e, pr := range pairs {
		j := res.Assign[e]
		if j < 0 {
			t.Fatalf("edge %d unassigned in strict mode", e)
		}
		sideCnt[[2]int64{pr[0], int64(j)}]++
		sideCnt[[2]int64{pr[1], int64(j)}]++
	}
	for e, pr := range pairs {
		j := int64(res.Assign[e])
		degPrime := sideCnt[[2]int64{pr[0], j}] + sideCnt[[2]int64{pr[1], j}] - 2
		if degPrime != 0 {
			t.Fatalf("edge %d has deg'=%d, want 0 (E2 guarantee)", e, degPrime)
		}
	}
}

// TestPhasesEngageWithRecursion forces both the E(1) phase machinery and
// the virtual-graph recursion: degrees above 2^ℓ with large p, where the
// virtual conflict degree 2^(ℓ−1)−2 exceeds BaseDegree.
func TestPhasesEngageWithRecursion(t *testing.T) {
	g := graph.RandomRegular(96, 40, 7) // deg(e) = 78 ≥ 2^ℓ for ℓ ≤ 6
	pairs := local.GraphPairs(g)
	c := 512
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
	res, err := SpaceReduceOnce(pairs, nil, lists, c, 32, params, local.Sequential)
	if err != nil {
		t.Fatalf("SpaceReduceOnce: %v", err)
	}
	if res.Trace.PhaseInstances == 0 {
		t.Fatalf("phases never engaged: %+v", res.Trace)
	}
	if res.Trace.VirtualRecursion == 0 {
		t.Fatalf("virtual recursion never engaged: %+v", res.Trace)
	}
	for e := range pairs {
		if res.Assign[e] < 0 {
			t.Fatalf("edge %d unassigned in strict mode", e)
		}
	}
}

// The level histogram of a reduction must match what Level() computes
// per-edge (cross-check between the solver path and the public helper).
func TestLevelHistogramMatchesHelper(t *testing.T) {
	g := graph.RandomRegular(32, 6, 9)
	pairs := local.GraphPairs(g)
	c := 128
	palette := make([]int, c)
	for i := range palette {
		palette[i] = i
	}
	lists := make([][]int, g.M())
	for e := range lists {
		lists[e] = palette
	}
	p := 8
	res, err := SpaceReduceOnce(pairs, nil, lists, c, p, Practical(), local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	pt := MakePartition(c, p)
	want := make(map[int]int)
	counts := pt.Counts(palette) // all edges share the full list
	l, ok := Level(counts, c)
	if !ok {
		t.Fatal("no level for full list")
	}
	want[l] = g.M()
	for lv, cnt := range res.Trace.LevelHistogram {
		if cnt != want[lv] {
			t.Fatalf("level %d: histogram %d, want %d", lv, cnt, want[lv])
		}
	}
}
