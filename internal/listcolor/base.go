package listcolor

import (
	"fmt"
	"slices"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// SolveBase solves a list edge coloring instance with slack 1 — every active
// edge's list strictly larger than its active degree — in O(Δ̄² + log* X)
// rounds: Linial reduces the initial X-coloring of the active conflict graph
// to K = O(Δ̄²) classes, then one class per round picks greedily from its
// remaining list. This is the solver the paper's recursion invokes for the
// constant-degree base case and for the T(2p−1, 1, 2p) sub-instances, where
// Δ̄ is small and O(Δ̄²) rounds are affordable.
//
// initColors optionally provides a proper coloring of the active conflict
// graph with initX colors, indexed by EdgeID; pass nil to start from edge
// IDs (X = g.M()).
//
// The returned slice maps EdgeID to chosen color, −1 for inactive edges.
func SolveBase(in *Instance, initColors []int, initX int, run local.Engine) ([]int, local.Stats, error) {
	m := in.G.M()
	if len(in.Lists) != m || (initColors != nil && len(initColors) != m) {
		return nil, local.Stats{}, fmt.Errorf("listcolor: %d lists and %d initial colors for %d edges", len(in.Lists), len(initColors), m)
	}
	sys, edges := local.ActivePairs(local.GraphPairs(in.G), in.Active)
	init := make([]int, len(edges))
	lists := make([][]int, len(edges))
	for i, e := range edges {
		init[i], lists[i] = int(e), in.Lists[e]
		if initColors != nil {
			init[i] = initColors[e]
		}
	}
	if initColors == nil {
		initX = m
	}
	chosen, stats, err := SolveOnTopology(sys.Topology(), init, initX, lists, run)
	if err != nil {
		return nil, stats, err
	}
	out := make([]int, m)
	for e := range out {
		out[e] = -1
	}
	for i, e := range edges {
		out[e] = chosen[i]
	}
	return out, stats, nil
}

// greedyRun is one greedy phase's shared state and the slabs its entities
// live in: the protocol values, and one window per entity of its degree's
// length in heard for the colors its neighbors announce.
type greedyRun struct {
	k      int
	chosen []int
	errs   *local.ErrorSink
	slab   []greedyByClass
	heard  []int
}

// newGreedyRun lays out the greedy phase of t's entities with their
// classes and lists.
func newGreedyRun(t *local.Topology, classes []int, k int, lists [][]int, chosen []int, errs *local.ErrorSink) *greedyRun {
	g := &greedyRun{k: k, chosen: chosen, errs: errs, slab: make([]greedyByClass, t.N())}
	ends := 0
	for i := range t.Ports {
		ends += len(t.Ports[i])
	}
	g.heard = make([]int, ends)
	off := 0
	for i := range g.slab {
		d := len(t.Ports[i])
		g.slab[i] = greedyByClass{g: g, index: int32(i), degree: int32(d), class: int32(classes[i]), list: lists[i], heard: g.heard[off : off : off+d]}
		off += d
	}
	return g
}

// greedyByClass is the per-edge protocol of the greedy phase: the edge whose
// Linial class is c picks, in round c+1, the first color of its list not
// taken by an already-colored conflicting edge, and announces it (a
// local.Broadcaster). Each neighbor announces once, so the colors heard fit
// a degree-sized window.
type greedyByClass struct {
	g      *greedyRun
	index  int32
	degree int32
	class  int32
	list   []int
	heard  []int // colors neighbors announced, within a degree-sized window
	color  int
	picked bool
}

func (gb *greedyByClass) Send(r int) []local.Message {
	return local.SendPerPort(gb, r, int(gb.degree))
}

func (gb *greedyByClass) Receive(r int, inbox []local.Message) bool {
	return local.ReceivePerPort(gb, r, inbox)
}

func (gb *greedyByClass) Broadcast(r int) (int, bool) {
	if r != int(gb.class)+1 {
		return 0, false
	}
	gb.pick()
	return gb.color, true
}

func (gb *greedyByClass) pick() {
	gb.picked = true
	for _, c := range gb.list {
		if !slices.Contains(gb.heard, c) {
			gb.color = c
			return
		}
	}
	gb.g.errs.Set(fmt.Errorf("listcolor: edge entity %d (class %d) has no free color: |L|=%d, %d heard",
		gb.index, gb.class, len(gb.list), len(gb.heard)))
	gb.color = -1
}

//distec:hotpath
func (gb *greedyByClass) ReceiveBroadcast(r int, in local.Broadcasts) bool {
	for p := 0; p < in.Len(); p++ {
		if c, sent := in.At(p); sent && c >= 0 {
			gb.heard = append(gb.heard, c)
		}
	}
	return gb.endOfRound(r)
}

// ReceiveNone implements local.Sleeper: rounds in which no neighbor
// announced need no inbox scan — the long quiet stretches of the
// one-class-per-round schedule.
func (gb *greedyByClass) ReceiveNone(r int) bool {
	return gb.endOfRound(r)
}

// NextWake implements local.Sleeper: until its class's round, an edge
// sends nothing and changes state only when a neighbor announces, so the
// engine may skip it until then.
func (gb *greedyByClass) NextWake(r int) int { return int(gb.class) + 1 }

func (gb *greedyByClass) endOfRound(r int) bool {
	if r < int(gb.class)+1 {
		return false
	}
	// This edge has announced; its color is final. Halting here (rather
	// than waiting out all k classes) is sound: halting is a per-entity
	// decision in the LOCAL model, and everything this edge will ever
	// send has been delivered.
	gb.g.chosen[gb.index] = gb.color
	if !gb.picked {
		gb.g.errs.Set(fmt.Errorf("listcolor: edge entity %d class %d never picked (k=%d)", gb.index, gb.class, gb.g.k))
		return true
	}
	return true
}

// GreedySequential is the centralized greedy oracle: edges in EdgeID order
// pick the smallest list color unused among already-colored conflicting
// edges. It succeeds on every slack-1 instance and serves as the correctness
// reference for the distributed solvers. Not a distributed algorithm.
func GreedySequential(in *Instance) ([]int, error) {
	g := in.G
	out := make([]int, g.M())
	for e := range out {
		out[e] = -1
	}
	for e := 0; e < g.M(); e++ {
		if !in.Active[e] {
			continue
		}
		used := make(map[int]bool)
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if out[f] >= 0 {
				used[out[f]] = true
			}
		})
		picked := -1
		for _, c := range in.Lists[e] {
			if !used[c] {
				picked = c
				break
			}
		}
		if picked < 0 {
			return nil, fmt.Errorf("listcolor: greedy stuck at edge %d (|L|=%d)", e, len(in.Lists[e]))
		}
		out[e] = picked
	}
	return out, nil
}
