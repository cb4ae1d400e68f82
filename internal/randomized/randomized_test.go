package randomized

import (
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/verify"
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

func TestSolveFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(60)},
		{"complete", graph.Complete(10)},
		{"regular8", graph.RandomRegular(64, 8, 2)},
		{"star", graph.Star(20)},
		{"gnp", graph.GNP(60, 0.1, 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := 2*tc.g.MaxDegree() - 1
			lists := uniformLists(tc.g, c)
			colors, stats, err := Solve(tc.g, nil, lists, 42, local.Sequential)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if err := verify.EdgeColoring(tc.g, nil, colors); err != nil {
				t.Fatal(err)
			}
			if err := verify.ListRespecting(tc.g, nil, lists, colors); err != nil {
				t.Fatal(err)
			}
			if err := verify.PaletteRespected(colors, c); err != nil {
				t.Fatal(err)
			}
			if stats.Rounds <= 0 {
				t.Fatal("no rounds")
			}
		})
	}
}

func TestRoundsLogarithmic(t *testing.T) {
	// O(log n) behavior: quadrupling the graph should grow rounds slowly.
	g1 := graph.RandomRegular(128, 8, 3)
	g2 := graph.RandomRegular(512, 8, 3)
	l1 := uniformLists(g1, 15)
	l2 := uniformLists(g2, 15)
	_, s1, err := Solve(g1, nil, l1, 1, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := Solve(g2, nil, l2, 1, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Rounds > 3*s1.Rounds+20 {
		t.Fatalf("rounds grew too fast: %d (n=128) vs %d (n=512)", s1.Rounds, s2.Rounds)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g := graph.RandomRegular(40, 6, 9)
	lists := uniformLists(g, 11)
	a, sa, err := Solve(g, nil, lists, 7, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := Solve(g, nil, lists, 7, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatal("same seed, different stats")
	}
	for e := range a {
		if a[e] != b[e] {
			t.Fatal("same seed, different colors")
		}
	}
	c, _, err := Solve(g, nil, lists, 8, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for e := range a {
		if a[e] != c[e] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical colorings (suspicious)")
	}
}

func TestPartialActive(t *testing.T) {
	g := graph.Complete(9)
	active := make([]bool, g.M())
	for e := range active {
		active[e] = e%2 == 0
	}
	lists := uniformLists(g, 2*g.MaxDegree()-1)
	colors, _, err := Solve(g, active, lists, 3, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.EdgeColoring(g, active, colors); err != nil {
		t.Fatal(err)
	}
	for e := range colors {
		if !active[e] && colors[e] != -1 {
			t.Fatalf("inactive edge %d colored", e)
		}
	}
}

func TestEnginesAgree(t *testing.T) {
	g := graph.RandomRegular(32, 6, 5)
	lists := uniformLists(g, 11)
	a, sa, err := Solve(g, nil, lists, 11, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := Solve(g, nil, lists, 11, local.Sharded(3))
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	for e := range a {
		if a[e] != b[e] {
			t.Fatalf("edge %d differs", e)
		}
	}
}
