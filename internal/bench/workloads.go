package bench

import (
	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/listcolor"
)

// Workload is a named graph family instantiation used across experiments.
type Workload struct {
	Name string
	G    *graph.Graph
}

// Families returns the standard six-family workload set at a given size
// budget (n nodes, degree parameter d).
func Families(n, d int, seed uint64) []Workload {
	if d >= n {
		d = n - 1
	}
	return []Workload{
		{Name: "regular", G: graph.RandomRegular(n, d, seed)},
		{Name: "bipartite", G: graph.RandomBipartiteRegular(n/2, min(d, n/2), seed)},
		{Name: "gnp", G: graph.GNP(n, float64(d)/float64(n), seed)},
		{Name: "powerlaw", G: graph.PowerLaw(n, 2.5, d, seed)},
		{Name: "geometric", G: geometricWithDegree(n, d, seed)},
		{Name: "tree", G: graph.RandomTree(n, seed)},
	}
}

// EdgeOp is one update of a dynamic-graph churn stream.
type EdgeOp struct {
	// Delete selects deletion of the (present) edge {U, V}; otherwise the
	// (absent) pair is inserted.
	Delete bool
	U, V   int
}

// Churn returns a deterministic single-edge update stream over g: at each
// step a pseudo-random node pair is drawn and the present/absent state of
// that edge is flipped — delete if live, insert if not. The stream is
// internally consistent (it simulates the live-edge overlay it drives), so
// every delete names a live edge and every insert an absent one. This is
// the update-stream workload of BenchmarkDynamic and the dynamic-coloring
// experiments.
func Churn(g *graph.Graph, count int, seed uint64) []EdgeOp {
	return ChurnCapped(g, count, 0, seed)
}

// ChurnCapped is Churn with a degree cap: when maxDeg > 0, inserts that
// would push an endpoint beyond maxDeg are skipped, so the graph's maximum
// degree never exceeds max(initial Δ, maxDeg) over the whole stream. With
// maxDeg = the initial Δ, a fixed palette of Δ+1 stays valid — and tight —
// at every update, which is the workload of the vizing-augmentation
// benchmarks and property tests. maxDeg 0 disables the cap.
func ChurnCapped(g *graph.Graph, count, maxDeg int, seed uint64) []EdgeOp {
	live := make(map[[2]int]bool, g.M())
	deg := make([]int, g.N())
	for _, e := range g.Edges() {
		live[[2]int{int(e.U), int(e.V)}] = true
		deg[e.U]++
		deg[e.V]++
	}
	s := seed
	nextRand := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	n := g.N()
	ops := make([]EdgeOp, 0, count)
	for len(ops) < count {
		u := int(nextRand() % uint64(n))
		v := int(nextRand() % uint64(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if live[key] {
			ops = append(ops, EdgeOp{Delete: true, U: u, V: v})
			live[key] = false
			deg[u]--
			deg[v]--
		} else if maxDeg <= 0 || (deg[u] < maxDeg && deg[v] < maxDeg) {
			ops = append(ops, EdgeOp{U: u, V: v})
			live[key] = true
			deg[u]++
			deg[v]++
		}
	}
	return ops
}

// geometricWithDegree picks a radius so the expected average degree is ~d.
func geometricWithDegree(n, d int, seed uint64) *graph.Graph {
	// Expected degree ≈ n·π·r²; solve for r.
	r := 0.564 * sqrt(float64(d)/float64(n)) // sqrt(d/(nπ))
	return graph.RandomGeometric(n, r, seed)
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// uniform builds the (2Δ−1) uniform instance of a graph.
func uniform(g *graph.Graph) *listcolor.Instance {
	c := 2*g.MaxDegree() - 1
	if c < 1 {
		c = 1
	}
	return listcolor.NewUniform(g, c)
}
