package local

import "github.com/distec/distec/internal/graph"

// FromGraph builds the node topology of g: entity i is node i, and port p of
// node v leads to the p-th neighbor in v's incidence order.
func FromGraph(g *graph.Graph) *Topology {
	n := g.N()
	t := &Topology{
		Ports: make([][]int32, n),
		Back:  make([][]int32, n),
	}
	// posAt[e][0] = port of e at its U endpoint, posAt[e][1] at its V endpoint.
	posAt := make([][2]int32, g.M())
	for v := 0; v < n; v++ {
		inc := g.Incident(v)
		t.Ports[v] = make([]int32, len(inc))
		t.Back[v] = make([]int32, len(inc))
		for p, e := range inc {
			u, _ := g.Endpoints(e)
			if u == v {
				posAt[e][0] = int32(p)
			} else {
				posAt[e][1] = int32(p)
			}
		}
	}
	for v := 0; v < n; v++ {
		for p, e := range g.Incident(v) {
			w := g.OtherEnd(e, v)
			t.Ports[v][p] = int32(w)
			u, _ := g.Endpoints(e)
			if u == w {
				t.Back[v][p] = posAt[e][0]
			} else {
				t.Back[v][p] = posAt[e][1]
			}
		}
		if len(t.Ports[v]) > t.MaxDeg {
			t.MaxDeg = len(t.Ports[v])
		}
	}
	return t
}

// PairConflict builds the conflict topology of a pair system: item i
// occupies the two side keys pairs[i][0] and pairs[i][1], and two items are
// linked iff they share a key (see NewPairs and Pairs.Topology).
func PairConflict(pairs [][2]int64) *Topology {
	return NewPairs(pairs).Topology()
}

// EdgeConflict builds the edge topology of g: entity e is edge e of g, and
// two entities are linked iff the edges share an endpoint (the line graph of
// g, with side keys = endpoint node IDs).
//
// An r-round protocol on this topology is simulable in at most 2r+O(1)
// rounds on the node network of g (each edge is simulated by its two
// endpoints); all round counts reported by the experiments are edge rounds,
// and the node bound follows by this standard translation.
func EdgeConflict(g *graph.Graph) *Topology {
	return PairConflict(GraphPairs(g))
}

// GraphPairs returns the pair system of g's edges, the item list the
// solvers run on: item e is edge e, occupying its two endpoint node IDs.
func GraphPairs(g *graph.Graph) [][2]int64 {
	pairs := make([][2]int64, g.M())
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(graph.EdgeID(e))
		pairs[e] = [2]int64{int64(u), int64(v)}
	}
	return pairs
}
