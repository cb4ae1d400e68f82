package vertexcolor

import (
	"testing"
	"testing/quick"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

func TestSolveFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(30)},
		{"complete", graph.Complete(9)},
		{"star", graph.Star(12)},
		{"regular", graph.RandomRegular(60, 6, 2)},
		{"grid", graph.Grid(6, 6)},
		{"tree", graph.RandomTree(50, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			colors, stats, err := Solve(tc.g, local.Sequential)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if err := Verify(tc.g, colors); err != nil {
				t.Fatal(err)
			}
			limit := tc.g.MaxDegree() + 1
			for v, c := range colors {
				if c < 0 || c >= limit {
					t.Fatalf("node %d color %d outside Δ+1=%d", v, c, limit)
				}
			}
			if stats.Rounds <= 0 {
				t.Fatal("no rounds")
			}
		})
	}
}

func TestSolveListRejectsSmallList(t *testing.T) {
	g := graph.Star(4)
	lists := [][]int{{0}, {0, 1}, {0, 1}, {0, 1}} // center list too small
	if _, _, err := SolveList(g, lists, nil); err == nil {
		t.Fatal("accepted |L| ≤ deg")
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	g := graph.Path(3)
	if err := Verify(g, []int{0, 1, 0}); err != nil {
		t.Fatalf("valid rejected: %v", err)
	}
	if err := Verify(g, []int{0, 0, 1}); err == nil {
		t.Fatal("conflict not caught")
	}
	if err := Verify(g, []int{0, 1}); err == nil {
		t.Fatal("length mismatch not caught")
	}
}

func TestEnginesAgree(t *testing.T) {
	g := graph.RandomRegular(36, 5, 4)
	a, sa, err := Solve(g, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := Solve(g, local.Sharded(3))
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d differs", v)
		}
	}
}

// Property: random graphs always get proper (Δ+1)-colorings.
func TestSolveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNP(40, 0.12, seed)
		colors, _, err := Solve(g, local.Sequential)
		if err != nil {
			return false
		}
		return Verify(g, colors) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
