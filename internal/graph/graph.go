// Package graph provides the undirected-graph substrate used throughout the
// repository: a compact incidence structure over a fixed node set, dense edge
// identifiers, edge-degree queries (the degree of an edge in the line graph),
// deterministic generators for every workload family used by the experiments,
// and a plain-text interchange format.
//
// The package deliberately never materializes the line graph: an edge's
// conflict neighborhood (all edges sharing an endpoint) is enumerated on the
// fly from the two incidence lists, which keeps memory linear in |V|+|E| even
// for dense graphs.
package graph

import "fmt"

// EdgeID densely identifies an edge of a Graph in insertion order.
type EdgeID int32

// Edge is an undirected edge between nodes U and V with U < V.
type Edge struct {
	U, V int32
}

// Graph is an undirected simple graph over nodes {0, …, n−1}.
//
// The zero value is not usable; construct with New. Graphs are append-only:
// edges can be added but never removed (sub-instances are represented by edge
// subsets elsewhere, never by mutation).
type Graph struct {
	n     int
	edges []Edge
	inc   [][]EdgeID        // inc[v] = IDs of edges incident to v, insertion order
	index map[uint64]EdgeID // packed (u,v) -> id, for duplicate detection and lookup
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{
		n:     n,
		inc:   make([][]EdgeID, n),
		index: make(map[uint64]EdgeID),
	}
}

func pack(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// AddEdge inserts the undirected edge {u, v} and returns its EdgeID.
// It reports an error for self-loops, out-of-range endpoints, and duplicates.
func (g *Graph) AddEdge(u, v int) (EdgeID, error) {
	if u == v {
		return -1, fmt.Errorf("graph: self-loop at node %d", u)
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if u > v {
		u, v = v, u
	}
	key := pack(int32(u), int32(v))
	if _, dup := g.index[key]; dup {
		return -1, fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{U: int32(u), V: int32(v)})
	g.inc[u] = append(g.inc[u], id)
	g.inc[v] = append(g.inc[v], id)
	g.index[key] = id
	return id, nil
}

// MustAddEdge is AddEdge for construction code with statically valid inputs;
// it panics on error. Generators use it after de-duplication.
func (g *Graph) MustAddEdge(u, v int) EdgeID {
	id, err := g.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return id
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Endpoints returns the two endpoints of edge e, with U < V.
func (g *Graph) Endpoints(e EdgeID) (u, v int) {
	ed := g.edges[e]
	return int(ed.U), int(ed.V)
}

// OtherEnd returns the endpoint of e that is not v.
func (g *Graph) OtherEnd(e EdgeID, v int) int {
	ed := g.edges[e]
	if int(ed.U) == v {
		return int(ed.V)
	}
	if int(ed.V) == v {
		return int(ed.U)
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d={%d,%d}", v, e, ed.U, ed.V))
}

// HasEdge reports whether {u,v} is an edge, returning its ID if so.
func (g *Graph) HasEdge(u, v int) (EdgeID, bool) {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return -1, false
	}
	id, ok := g.index[pack(int32(u), int32(v))]
	return id, ok
}

// Degree returns deg(v), the number of edges incident to node v.
func (g *Graph) Degree(v int) int { return len(g.inc[v]) }

// Incident returns the edge IDs incident to node v. The returned slice is the
// graph's internal storage and must not be modified.
func (g *Graph) Incident(v int) []EdgeID { return g.inc[v] }

// MaxDegree returns Δ, the maximum node degree (0 for edgeless graphs).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.inc[v]) > d {
			d = len(g.inc[v])
		}
	}
	return d
}

// EdgeDegree returns deg(e) = deg(u)+deg(v)−2, the degree of e in the line
// graph of g (the number of edges that conflict with e).
func (g *Graph) EdgeDegree(e EdgeID) int {
	ed := g.edges[e]
	return len(g.inc[ed.U]) + len(g.inc[ed.V]) - 2
}

// MaxEdgeDegree returns Δ̄, the maximum degree of the line graph
// (0 for graphs with fewer than two adjacent edges).
func (g *Graph) MaxEdgeDegree() int {
	d := 0
	for e := range g.edges {
		if de := g.EdgeDegree(EdgeID(e)); de > d {
			d = de
		}
	}
	return d
}

// ForEachEdgeNeighbor calls fn for every edge f ≠ e sharing an endpoint with
// e. Each conflicting edge is visited exactly once: edges incident to both
// endpoints of e cannot exist in a simple graph other than e itself.
func (g *Graph) ForEachEdgeNeighbor(e EdgeID, fn func(f EdgeID)) {
	ed := g.edges[e]
	for _, f := range g.inc[ed.U] {
		if f != e {
			fn(f)
		}
	}
	for _, f := range g.inc[ed.V] {
		if f != e {
			fn(f)
		}
	}
}

// Edges returns all edges by value, indexed by EdgeID. The returned slice is
// the graph's internal storage and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Validate performs an internal consistency check (incidence lists match the
// edge array, no duplicates). It is O(n + m log m) and intended for tests.
func (g *Graph) Validate() error {
	seen := make(map[uint64]bool, len(g.edges))
	for i, ed := range g.edges {
		if ed.U == ed.V {
			return fmt.Errorf("graph: edge %d is a self-loop", i)
		}
		if ed.U > ed.V {
			return fmt.Errorf("graph: edge %d endpoints not normalized", i)
		}
		k := pack(ed.U, ed.V)
		if seen[k] {
			return fmt.Errorf("graph: duplicate edge %d={%d,%d}", i, ed.U, ed.V)
		}
		seen[k] = true
	}
	count := 0
	for v := 0; v < g.n; v++ {
		for _, id := range g.inc[v] {
			if int(id) >= len(g.edges) {
				return fmt.Errorf("graph: node %d lists unknown edge %d", v, id)
			}
			ed := g.edges[id]
			if int(ed.U) != v && int(ed.V) != v {
				return fmt.Errorf("graph: node %d lists non-incident edge %d", v, id)
			}
			count++
		}
	}
	if count != 2*len(g.edges) {
		return fmt.Errorf("graph: incidence count %d != 2m=%d", count, 2*len(g.edges))
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = append([]Edge(nil), g.edges...)
	for v := range g.inc {
		c.inc[v] = append([]EdgeID(nil), g.inc[v]...)
	}
	for k, v := range g.index {
		c.index[k] = v
	}
	return c
}
