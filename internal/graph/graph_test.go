package graph

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	id, err := g.AddEdge(2, 0)
	if err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if id != 0 {
		t.Fatalf("first edge id = %d, want 0", id)
	}
	u, v := g.Endpoints(id)
	if u != 0 || v != 2 {
		t.Fatalf("Endpoints = (%d,%d), want normalized (0,2)", u, v)
	}
	if got := g.OtherEnd(id, 0); got != 2 {
		t.Fatalf("OtherEnd(0) = %d, want 2", got)
	}
	if got := g.OtherEnd(id, 2); got != 0 {
		t.Fatalf("OtherEnd(2) = %d, want 0", got)
	}
	if _, ok := g.HasEdge(0, 2); !ok {
		t.Fatal("HasEdge(0,2) = false, want true")
	}
	if _, ok := g.HasEdge(2, 0); !ok {
		t.Fatal("HasEdge(2,0) = false, want true")
	}
	if _, ok := g.HasEdge(1, 3); ok {
		t.Fatal("HasEdge(1,3) = true, want false")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	cases := []struct {
		name string
		u, v int
	}{
		{"self-loop", 1, 1},
		{"u out of range", -1, 0},
		{"v out of range", 0, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := g.AddEdge(tc.u, tc.v); err == nil {
				t.Fatalf("AddEdge(%d,%d) succeeded, want error", tc.u, tc.v)
			}
		})
	}
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if _, err := g.AddEdge(1, 0); err == nil {
		t.Fatal("duplicate AddEdge(1,0) succeeded, want error")
	}
}

func TestDegreesAndEdgeDegrees(t *testing.T) {
	// Star K_{1,4}: center degree 4, leaves 1; each edge degree = 4+1-2 = 3.
	g := Star(5)
	if got := g.Degree(0); got != 4 {
		t.Fatalf("center degree = %d, want 4", got)
	}
	if got := g.MaxDegree(); got != 4 {
		t.Fatalf("MaxDegree = %d, want 4", got)
	}
	for e := 0; e < g.M(); e++ {
		if got := g.EdgeDegree(EdgeID(e)); got != 3 {
			t.Fatalf("EdgeDegree(%d) = %d, want 3", e, got)
		}
	}
	if got := g.MaxEdgeDegree(); got != 3 {
		t.Fatalf("MaxEdgeDegree = %d, want 3", got)
	}
}

func TestEdgeNeighbors(t *testing.T) {
	// Path 0-1-2-3: middle edge {1,2} conflicts with both outer edges.
	g := Path(4)
	var mid EdgeID = -1
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(EdgeID(e))
		if u == 1 && v == 2 {
			mid = EdgeID(e)
		}
	}
	if mid < 0 {
		t.Fatal("middle edge not found")
	}
	seen := map[EdgeID]int{}
	g.ForEachEdgeNeighbor(mid, func(f EdgeID) { seen[f]++ })
	if len(seen) != 2 {
		t.Fatalf("middle edge has %d conflicts, want 2", len(seen))
	}
	for f, c := range seen {
		if c != 1 {
			t.Fatalf("edge %d visited %d times, want exactly once", f, c)
		}
	}
}

func TestGeneratorsShape(t *testing.T) {
	cases := []struct {
		name       string
		g          *Graph
		n, m       int
		maxDeg     int
		wantEdgeDg int // -1 to skip
	}{
		{"cycle", Cycle(10), 10, 10, 2, 2},
		{"path", Path(6), 6, 5, 2, -1},
		{"star", Star(7), 7, 6, 6, 5},
		{"complete", Complete(5), 5, 10, 4, 6},
		{"bipartite", CompleteBipartite(3, 4), 7, 12, 4, 5},
		{"grid", Grid(3, 4), 12, 17, 4, -1},
		{"torus", Torus(3, 3), 9, 18, 4, 6},
		{"hypercube", Hypercube(4), 16, 32, 4, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if tc.g.N() != tc.n {
				t.Errorf("N = %d, want %d", tc.g.N(), tc.n)
			}
			if tc.g.M() != tc.m {
				t.Errorf("M = %d, want %d", tc.g.M(), tc.m)
			}
			if tc.g.MaxDegree() != tc.maxDeg {
				t.Errorf("MaxDegree = %d, want %d", tc.g.MaxDegree(), tc.maxDeg)
			}
			if tc.wantEdgeDg >= 0 && tc.g.MaxEdgeDegree() != tc.wantEdgeDg {
				t.Errorf("MaxEdgeDegree = %d, want %d", tc.g.MaxEdgeDegree(), tc.wantEdgeDg)
			}
		})
	}
}

func TestRandomRegular(t *testing.T) {
	for _, d := range []int{2, 3, 4, 8} {
		g := RandomRegular(64, d, 42)
		if err := g.Validate(); err != nil {
			t.Fatalf("d=%d Validate: %v", d, err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != d {
				t.Fatalf("d=%d: node %d has degree %d", d, v, g.Degree(v))
			}
		}
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a := RandomRegular(50, 4, 7)
	b := RandomRegular(50, 4, 7)
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts %d vs %d", a.M(), b.M())
	}
	for i := range a.Edges() {
		if a.Edges()[i] != b.Edges()[i] {
			t.Fatalf("same seed, edge %d differs", i)
		}
	}
	c := RandomRegular(50, 4, 8)
	same := a.M() == c.M()
	if same {
		for i := range a.Edges() {
			if a.Edges()[i] != c.Edges()[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRandomBipartiteRegular(t *testing.T) {
	g := RandomBipartiteRegular(16, 5, 3)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 5 {
			t.Fatalf("node %d degree %d, want 5", v, g.Degree(v))
		}
	}
	// Bipartiteness: every edge crosses the parts.
	for _, e := range g.Edges() {
		if (int(e.U) < 16) == (int(e.V) < 16) {
			t.Fatalf("edge {%d,%d} does not cross parts", e.U, e.V)
		}
	}
}

func TestGNPAndFamilies(t *testing.T) {
	g := GNP(100, 0.05, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("GNP Validate: %v", err)
	}
	if g.M() == 0 {
		t.Fatal("GNP produced empty graph at p=0.05, n=100")
	}
	pl := PowerLaw(120, 2.5, 30, 2)
	if err := pl.Validate(); err != nil {
		t.Fatalf("PowerLaw Validate: %v", err)
	}
	geo := RandomGeometric(80, 0.2, 3)
	if err := geo.Validate(); err != nil {
		t.Fatalf("RandomGeometric Validate: %v", err)
	}
	tr := RandomTree(64, 4)
	if err := tr.Validate(); err != nil {
		t.Fatalf("RandomTree Validate: %v", err)
	}
	if tr.M() != 63 {
		t.Fatalf("tree edges = %d, want 63", tr.M())
	}
	cat := Caterpillar(10, 5)
	if err := cat.Validate(); err != nil {
		t.Fatalf("Caterpillar Validate: %v", err)
	}
	if cat.MaxDegree() != 7 {
		t.Fatalf("caterpillar MaxDegree = %d, want 7 (2 spine + 5 legs)", cat.MaxDegree())
	}
	cc := CliqueChain(4, 5)
	if err := cc.Validate(); err != nil {
		t.Fatalf("CliqueChain Validate: %v", err)
	}
	if cc.N() != 17 {
		t.Fatalf("CliqueChain nodes = %d, want 17", cc.N())
	}
}

func TestRoundTripIO(t *testing.T) {
	g := RandomRegular(40, 3, 11)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip n/m mismatch: got (%d,%d), want (%d,%d)", h.N(), h.M(), g.N(), g.M())
	}
	for i := range g.Edges() {
		if g.Edges()[i] != h.Edges()[i] {
			t.Fatalf("edge %d mismatch after round trip", i)
		}
	}
}

func TestReadComments(t *testing.T) {
	in := "# header comment\n3 2\n\n0 1\n# interior\n1 2\n"
	g, err := Read(bytes.NewBufferString(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got (n=%d,m=%d), want (3,2)", g.N(), g.M())
	}
}

func TestClone(t *testing.T) {
	g := Cycle(6)
	c := g.Clone()
	c.MustAddEdge(0, 3)
	if g.M() == c.M() {
		t.Fatal("mutating clone affected original")
	}
	if _, ok := g.HasEdge(0, 3); ok {
		t.Fatal("original gained edge added to clone")
	}
}

// Property: in any generated graph, edge degree equals the number of
// distinct conflicting edges enumerated by ForEachEdgeNeighbor.
func TestEdgeDegreeMatchesEnumeration(t *testing.T) {
	f := func(seed uint64) bool {
		g := GNP(40, 0.1, seed)
		for e := 0; e < g.M(); e++ {
			count := 0
			g.ForEachEdgeNeighbor(EdgeID(e), func(EdgeID) { count++ })
			if count != g.EdgeDegree(EdgeID(e)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of node degrees is 2m and Δ̄ ≤ 2Δ−2 (paper §2.1).
func TestHandshakeAndLineDegreeBound(t *testing.T) {
	f := func(seed uint64) bool {
		g := GNP(60, 0.08, seed)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		if sum != 2*g.M() {
			return false
		}
		if g.M() > 0 && g.MaxEdgeDegree() > 2*g.MaxDegree()-2 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(200, 3, 5)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Every arriving node contributes exactly k edges; seed clique adds
	// k(k+1)/2.
	want := 3*4/2 + (200-4)*3
	if g.M() != want {
		t.Fatalf("edges = %d, want %d", g.M(), want)
	}
	// Heavy tail: the max degree should exceed the attachment parameter by
	// a fat margin on 200 nodes.
	if g.MaxDegree() < 10 {
		t.Fatalf("max degree %d suspiciously small for preferential attachment", g.MaxDegree())
	}
	// Determinism.
	h := BarabasiAlbert(200, 3, 5)
	for i := range g.Edges() {
		if g.Edges()[i] != h.Edges()[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BarabasiAlbert(3,3) did not panic")
		}
	}()
	BarabasiAlbert(3, 3, 1)
}
