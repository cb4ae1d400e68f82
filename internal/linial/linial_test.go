package linial

import (
	"testing"
	"testing/quick"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// properOn checks that colors is a proper coloring of topology t.
func properOn(t *local.Topology, colors []int) bool {
	for i := range t.Ports {
		for _, j := range t.Ports[i] {
			if colors[i] == colors[j] {
				return false
			}
		}
	}
	return true
}

func identityColors(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = i
	}
	return c
}

func TestPlanTerminatesAndShrinks(t *testing.T) {
	for _, x := range []int{10, 1000, 1 << 20, 1 << 40} {
		for _, deg := range []int{1, 2, 3, 8, 100, 500} {
			plan := Plan(x, deg)
			m := x
			for _, s := range plan {
				if s.Q <= deg*s.D {
					t.Fatalf("X=%d deg=%d: step q=%d not > deg*d=%d", x, deg, s.Q, deg*s.D)
				}
				if pow64(s.Q, s.D+1) < m {
					t.Fatalf("X=%d deg=%d: q^(d+1) < current colors %d", x, deg, m)
				}
				next := s.Q * s.Q
				if next >= m {
					t.Fatalf("X=%d deg=%d: step does not shrink (%d -> %d)", x, deg, m, next)
				}
				m = next
			}
			if len(plan) > 10 {
				t.Fatalf("X=%d deg=%d: plan length %d, want O(log*) (≤10)", x, deg, len(plan))
			}
		}
	}
}

func TestColorsIsQuadraticInDegree(t *testing.T) {
	for _, deg := range []int{2, 4, 16, 64, 256, 1024} {
		k := Colors(1<<40, deg)
		// Fixpoint is at most NextPrime(·)² with the q of the last useful
		// step; assert the O(deg²) envelope with an explicit constant.
		if k > 9*(deg+1)*(deg+1) {
			t.Fatalf("deg=%d: fixpoint %d colors exceeds 9(deg+1)²=%d", deg, k, 9*(deg+1)*(deg+1))
		}
		if k < deg+1 {
			t.Fatalf("deg=%d: fixpoint %d colors below chromatic lower bound", deg, k)
		}
	}
}

func TestReduceOnFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(64)},
		{"complete", graph.Complete(9)},
		{"star", graph.Star(12)},
		{"regular4", graph.RandomRegular(60, 4, 5)},
		{"grid", graph.Grid(6, 7)},
		{"gnp", graph.GNP(70, 0.07, 9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := local.FromGraph(tc.g)
			init := identityColors(tp.N())
			colors, stats, err := Reduce(tp, init, tp.N(), local.Sequential)
			if err != nil {
				t.Fatalf("Reduce: %v", err)
			}
			if !properOn(tp, colors) {
				t.Fatal("result is not a proper coloring")
			}
			want := Colors(tp.N(), tp.MaxDeg)
			for i, c := range colors {
				if c < 0 || c >= want {
					t.Fatalf("entity %d color %d outside [0,%d)", i, c, want)
				}
			}
			if stats.Rounds != len(Plan(tp.N(), tp.MaxDeg)) && len(Plan(tp.N(), tp.MaxDeg)) > 0 {
				t.Fatalf("rounds = %d, want plan length %d", stats.Rounds, len(Plan(tp.N(), tp.MaxDeg)))
			}
		})
	}
}

func TestReduceOnEdgeTopology(t *testing.T) {
	g := graph.RandomRegular(48, 5, 6)
	tp := local.EdgeConflict(g)
	colors, _, err := Reduce(tp, identityColors(tp.N()), tp.N(), local.Sequential)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if !properOn(tp, colors) {
		t.Fatal("edge coloring not proper on line graph")
	}
	if got, bound := maxOf(colors)+1, Colors(tp.N(), tp.MaxDeg); got > bound {
		t.Fatalf("used %d colors, bound %d", got, bound)
	}
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestEnginesAgree(t *testing.T) {
	g := graph.RandomRegular(40, 4, 11)
	tp := local.EdgeConflict(g)
	init := identityColors(tp.N())
	seqColors, seqStats, err := Reduce(tp, init, tp.N(), local.Sequential)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	goColors, goStats, err := Reduce(tp, init, tp.N(), local.Sharded(3))
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if seqStats != goStats {
		t.Fatalf("stats differ: %+v vs %+v", seqStats, goStats)
	}
	for i := range seqColors {
		if seqColors[i] != goColors[i] {
			t.Fatalf("entity %d: %d vs %d", i, seqColors[i], goColors[i])
		}
	}
}

func TestReduceToTarget(t *testing.T) {
	g := graph.RandomRegular(50, 3, 4)
	tp := local.FromGraph(g) // max degree 3
	colors, _, err := ReduceToTarget(tp, identityColors(tp.N()), tp.N(), 4, local.Sequential)
	if err != nil {
		t.Fatalf("ReduceToTarget: %v", err)
	}
	if !properOn(tp, colors) {
		t.Fatal("not proper")
	}
	for _, c := range colors {
		if c >= 4 {
			t.Fatalf("color %d ≥ target 4", c)
		}
	}
}

func TestReduceToTargetRejectsTooFewColors(t *testing.T) {
	tp := local.FromGraph(graph.Complete(5))
	if _, _, err := ReduceToTarget(tp, identityColors(5), 5, 4, nil); err == nil {
		t.Fatal("accepted target < maxDeg+1")
	}
}

func TestThreeColorPaths(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Cycle(100), graph.Path(77), graph.Cycle(3)} {
		tp := local.FromGraph(g)
		colors, stats, err := ThreeColorPaths(tp, identityColors(tp.N()), tp.N(), local.Sequential)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if !properOn(tp, colors) {
			t.Fatalf("%v: not proper", g)
		}
		for _, c := range colors {
			if c > 2 {
				t.Fatalf("%v: color %d > 2", g, c)
			}
		}
		// O(log* n): generous constant envelope.
		if stats.Rounds > 30 {
			t.Fatalf("%v: %d rounds for 3-coloring, want O(log* n)", g, stats.Rounds)
		}
	}
}

func TestThreeColorPathsRejectsHighDegree(t *testing.T) {
	tp := local.FromGraph(graph.Star(5))
	if _, _, err := ThreeColorPaths(tp, identityColors(5), 5, nil); err == nil {
		t.Fatal("accepted max degree > 2")
	}
}

func TestImproperInputDetected(t *testing.T) {
	tp := local.FromGraph(graph.Complete(4))
	bad := []int{0, 0, 1, 2} // entities 0,1 adjacent with same color
	if _, _, err := Reduce(tp, bad, 4, local.Sequential); err == nil {
		t.Fatal("improper input coloring not detected")
	}
}

func TestInputValidation(t *testing.T) {
	tp := local.FromGraph(graph.Cycle(4))
	if _, _, err := Reduce(tp, []int{0, 1}, 4, nil); err == nil {
		t.Fatal("accepted wrong-length initial coloring")
	}
	if _, _, err := Reduce(tp, []int{0, 1, 2, 9}, 4, nil); err == nil {
		t.Fatal("accepted out-of-range initial color")
	}
}

// Property: Reduce preserves properness and lands under the color bound for
// random sparse graphs (the Lemma the whole pipeline relies on).
func TestReduceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNP(36, 0.09, seed)
		if g.M() == 0 {
			return true
		}
		tp := local.EdgeConflict(g)
		colors, _, err := Reduce(tp, identityColors(tp.N()), tp.N(), local.Sequential)
		if err != nil {
			return false
		}
		if !properOn(tp, colors) {
			return false
		}
		return maxOf(colors) < Colors(tp.N(), tp.MaxDeg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Rounds must grow like log*: doubling X repeatedly should add O(1) steps.
func TestPlanGrowthIsLogStar(t *testing.T) {
	l1 := len(Plan(1<<10, 16))
	l2 := len(Plan(1<<20, 16))
	l3 := len(Plan(1<<40, 16))
	if l2 > l1+2 || l3 > l2+2 {
		t.Fatalf("plan lengths %d, %d, %d grow faster than log*", l1, l2, l3)
	}
}

// TestBroadcastRoundsAllocationFree pins the steady state of a broadcast
// Linial run at zero allocations per round, on local.Exec.Round with one
// block (the sequential engine) and with two shards and a nil executor (so
// broadcasts also cross shards): the reducer's step keeps its digits on
// the stack and the engines reuse every per-round buffer. The run repeats
// one plan step — its output colors < Q² are valid input again — so both
// the Linial phase and the class-elimination phase last long enough to
// measure.
func TestBroadcastRoundsAllocationFree(t *testing.T) {
	tp := local.EdgeConflict(graph.RandomRegular(64, 6, 1))
	init := make([]int, tp.N())
	for i := range init {
		init[i] = 1009 * i
	}
	s := Plan(1009*tp.N(), tp.MaxDeg)[0]
	plan := make([]Step, 24)
	for i := range plan {
		plan[i] = s
	}
	factory := func(out []int, errs *local.ErrorSink) local.Factory {
		rn, err := newReduction(tp.N(), plan, s.Q*s.Q, tp.MaxDeg+1, tp.MaxDeg, out, errs)
		if err != nil {
			t.Fatal(err)
		}
		return func(v local.View) local.Protocol { return rn.entity(v, init[v.Index]) }
	}
	for _, shards := range []int{1, 2} {
		out := make([]int, tp.N())
		errs := &local.ErrorSink{}
		x := local.Prepare(tp, factory(out, errs), nil, shards, nil)
		r := 0
		step := func() {
			r++
			if x.Round(nil) {
				t.Fatalf("shards=%d: finished at round %d", shards, r)
			}
		}
		step()
		step()
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("shards=%d: %v allocations per Linial round, want 0", shards, allocs)
		}
		for r < len(plan)+2 {
			step()
		}
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("shards=%d: %v allocations per class-elimination round, want 0", shards, allocs)
		}
		for !x.Round(nil) {
		}
		if err := errs.Err(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !properOn(tp, out) {
			t.Fatalf("shards=%d: improper coloring", shards)
		}
		for i, c := range out {
			if c >= tp.MaxDeg+1 {
				t.Fatalf("shards=%d: entity %d color %d ≥ target %d", shards, i, c, tp.MaxDeg+1)
			}
		}
	}
}
