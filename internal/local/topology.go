package local

import (
	"fmt"

	"github.com/distec/distec/internal/graph"
)

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

// EdgeMeta is the local knowledge of an item in a pair-conflict topology:
// the two side keys it occupies, the number of items on each side, and its
// position within each side's item list.
//
// For the edge-conflict topology of a graph, the side keys are the two
// endpoint node IDs, so EdgeMeta is exactly what the two endpoints of the
// edge know without communication. The paper's node-driven constructions
// (grouping incident edges in the defective coloring of §4.1, splitting
// nodes into virtual copies in §4.2) are deterministic functions of this
// data — and because virtual graphs are themselves pair systems (side key =
// virtual copy), the same machinery runs unchanged on them.
type EdgeMeta struct {
	// A, B are the two side keys (for graphs: endpoint node IDs, A < B).
	A, B int64
	// DegA, DegB are the number of items on side A and side B (for graphs:
	// endpoint degrees).
	DegA, DegB int
	// PosA, PosB are this item's positions in the side item lists.
	PosA, PosB int
	// Item is the index of this item in the pair list (for graphs: the
	// graph.EdgeID), for mapping results back.
	Item int
}

// EdgeDegree returns the conflict degree deg(e) = DegA+DegB−2 (paper §2.1).
func (m *EdgeMeta) EdgeDegree() int { return m.DegA + m.DegB - 2 }

// ViaA reports whether port p connects through side A.
// Port layout: ports 0..DegA−2 are side A's other items in side order;
// ports DegA−1..DegA+DegB−3 are side B's other items.
func (m *EdgeMeta) ViaA(p int) bool { return p < m.DegA-1 }

// SharedKey returns the side key shared with the neighbor on port p.
func (m *EdgeMeta) SharedKey(p int) int64 {
	if m.ViaA(p) {
		return m.A
	}
	return m.B
}

// NeighborPos returns the position, within the shared side's item list, of
// the item reached via port p. Together with PosA/PosB this lets an item
// reconstruct the full ordered item list of each of its sides locally.
func (m *EdgeMeta) NeighborPos(p int) int {
	if m.ViaA(p) {
		if p < m.PosA {
			return p
		}
		return p + 1
	}
	q := p - (m.DegA - 1)
	if q < m.PosB {
		return q
	}
	return q + 1
}

// SidePorts returns the half-open port range [lo, hi) of the links passing
// through the given side (0 = A, 1 = B).
func (m *EdgeMeta) SidePorts(side int) (lo, hi int) {
	if side == 0 {
		return 0, m.DegA - 1
	}
	return m.DegA - 1, m.DegA - 1 + m.DegB - 1
}

// PairConflict builds the conflict topology of a pair system: item i
// occupies the two side keys pairs[i][0] and pairs[i][1], and two items are
// linked iff they share a key. Ports are ordered side-A first (in side item
// order) then side-B. Each item's Meta is an *EdgeMeta.
//
// Pairs with equal keys are rejected with a panic: they would be self-loops,
// which the paper's graphs exclude. Two items may share both keys only
// through distinct key order; for graphs this cannot happen (simple graphs),
// and for virtual systems the builder keeps multi-links consistent.
func PairConflict(pairs [][2]int64) *Topology {
	m := len(pairs)
	t := &Topology{
		Ports: make([][]int32, m),
		Back:  make([][]int32, m),
		Meta:  make([]any, m),
	}
	// Side incidence: key -> items occupying it, in item order.
	side := make(map[int64][]int32)
	for i, pr := range pairs {
		if pr[0] == pr[1] {
			panic(fmt.Sprintf("local: item %d occupies key %d on both sides", i, pr[0]))
		}
		side[pr[0]] = append(side[pr[0]], int32(i))
		side[pr[1]] = append(side[pr[1]], int32(i))
	}
	metas := make([]EdgeMeta, m)
	pos := make([][2]int32, m) // position of item within side A / side B list
	for key, items := range side {
		for p, it := range items {
			if pairs[it][0] == key {
				pos[it][0] = int32(p)
			} else {
				pos[it][1] = int32(p)
			}
		}
	}
	for i, pr := range pairs {
		metas[i] = EdgeMeta{
			A:    pr[0],
			B:    pr[1],
			DegA: len(side[pr[0]]),
			DegB: len(side[pr[1]]),
			PosA: int(pos[i][0]),
			PosB: int(pos[i][1]),
			Item: i,
		}
		t.Meta[i] = &metas[i]
	}
	// portAt returns the port index at item f for its link to the item at
	// position posOther of shared key k.
	portAt := func(f int32, k int64, posOther int32) int32 {
		var ownPos, offset int32
		if pairs[f][0] == k {
			ownPos = pos[f][0]
			offset = 0
		} else {
			ownPos = pos[f][1]
			offset = int32(len(side[pairs[f][0]])) - 1
		}
		if posOther < ownPos {
			return offset + posOther
		}
		return offset + posOther - 1
	}
	for i := range pairs {
		me := &metas[i]
		deg := me.EdgeDegree()
		t.Ports[i] = make([]int32, 0, deg)
		t.Back[i] = make([]int32, 0, deg)
		appendSide := func(k int64, ownPos int32) {
			for _, f := range side[k] {
				if int(f) == i {
					continue
				}
				t.Ports[i] = append(t.Ports[i], f)
				t.Back[i] = append(t.Back[i], portAt(f, k, ownPos))
			}
		}
		appendSide(me.A, pos[i][0])
		appendSide(me.B, pos[i][1])
		if deg > t.MaxDeg {
			t.MaxDeg = deg
		}
	}
	return t
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

// MetaOf extracts the *EdgeMeta from a view of a pair-conflict topology.
// It panics with a descriptive message when used on the wrong topology,
// which is always a programming error.
func MetaOf(v View) *EdgeMeta {
	m, ok := v.Meta.(*EdgeMeta)
	if !ok {
		panic(fmt.Sprintf("local: entity %d has no EdgeMeta (topology is not a pair-conflict topology)", v.Index))
	}
	return m
}
