package distec

import (
	"testing"
)

func TestColorEdgesDefault(t *testing.T) {
	g := RandomRegular(128, 8, 1)
	res, err := ColorEdges(g, Options{})
	if err != nil {
		t.Fatalf("ColorEdges: %v", err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Palette != 2*g.MaxDegree()-1 {
		t.Fatalf("palette %d, want %d", res.Palette, 2*g.MaxDegree()-1)
	}
	if res.ColorsUsed > res.Palette {
		t.Fatalf("used %d colors over palette %d", res.ColorsUsed, res.Palette)
	}
	if res.Rounds <= 0 || res.Messages <= 0 {
		t.Fatalf("missing cost accounting: %+v", res)
	}
	if res.Diagnostics == nil {
		t.Fatal("BKO run missing diagnostics")
	}
}

func TestAllAlgorithms(t *testing.T) {
	g := RandomRegular(96, 8, 3)
	for _, alg := range []Algorithm{BKO, BKOTheory, PR01, GreedyClasses, Randomized} {
		t.Run(string(alg), func(t *testing.T) {
			res, err := ColorEdges(g, Options{Algorithm: alg, Seed: 7})
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if err := Verify(g, res.Colors); err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
		})
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	g := Cycle(5)
	if _, err := ColorEdges(g, Options{Algorithm: "nope"}); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

func TestPaletteValidation(t *testing.T) {
	g := Complete(6)
	if _, err := ColorEdges(g, Options{Palette: 3}); err == nil {
		t.Fatal("accepted palette ≤ Δ̄")
	}
	res, err := ColorEdges(g, Options{Palette: 2 * g.MaxEdgeDegree()})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestColorEdgesList(t *testing.T) {
	g := Star(6)
	// Each edge of a 5-star has degree 4: lists of 5 colors.
	lists := make([][]int, g.M())
	for e := range lists {
		lists[e] = []int{e, e + 1, e + 2, e + 3, e + 4}
	}
	res, err := ColorEdgesList(g, lists, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyList(g, lists, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestColorEdgesListRejectsSlack(t *testing.T) {
	g := Star(6)
	lists := make([][]int, g.M())
	for e := range lists {
		lists[e] = []int{0, 1} // too small for degree 4
	}
	if _, err := ColorEdgesList(g, lists, 5, Options{}); err == nil {
		t.Fatal("accepted slack violation")
	}
}

func TestGraphBuilding(t *testing.T) {
	g := NewGraph(4)
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	res, err := ColorEdges(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsSmoke(t *testing.T) {
	gs := []*Graph{
		Cycle(5), Path(5), Star(5), Complete(5), CompleteBipartite(3, 3),
		Grid(3, 3), Torus(3, 3), Hypercube(3), RandomRegular(16, 3, 1),
		RandomBipartiteRegular(8, 3, 1), GNP(20, 0.2, 1), PowerLaw(20, 2.5, 6, 1),
		RandomGeometric(20, 0.4, 1), RandomTree(20, 1), Caterpillar(4, 3), CliqueChain(3, 4),
	}
	for i, g := range gs {
		if g.N() == 0 {
			t.Fatalf("generator %d produced empty graph", i)
		}
		if g.M() == 0 {
			continue
		}
		res, err := ColorEdges(g, Options{Algorithm: PR01})
		if err != nil {
			t.Fatalf("generator %d: %v", i, err)
		}
		if err := Verify(g, res.Colors); err != nil {
			t.Fatalf("generator %d: %v", i, err)
		}
	}
}

func TestColorVertices(t *testing.T) {
	g := RandomRegular(80, 7, 9)
	res, err := ColorVertices(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyVertices(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Palette != g.MaxDegree()+1 {
		t.Fatalf("palette %d, want Δ+1=%d", res.Palette, g.MaxDegree()+1)
	}
	for v, c := range res.Colors {
		if c < 0 || c >= res.Palette {
			t.Fatalf("node %d color %d outside palette", v, c)
		}
	}
}
