package listcolor

import (
	"fmt"

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

// greedyByClass is the per-edge protocol of the greedy phase: the edge whose
// Linial class is c picks, in round c+1, the smallest color of its list not
// taken by an already-colored conflicting edge, and announces it (a
// local.Broadcaster).
type greedyByClass struct {
	v      local.View
	class  int
	k      int
	list   []int
	taken  map[int]bool
	color  int
	picked bool
	chosen []int
	errs   *local.ErrorSink
}

func (gb *greedyByClass) Send(r int) []local.Message { return local.SendPerPort(gb, r, gb.v.Degree) }

func (gb *greedyByClass) Receive(r int, inbox []local.Message) bool {
	return local.ReceivePerPort(gb, r, inbox)
}

func (gb *greedyByClass) Broadcast(r int) (int, bool) {
	if r != gb.class+1 {
		return 0, false
	}
	gb.pick()
	return gb.color, true
}

func (gb *greedyByClass) pick() {
	gb.picked = true
	for _, c := range gb.list {
		if !gb.taken[c] {
			gb.color = c
			return
		}
	}
	gb.errs.Set(fmt.Errorf("listcolor: edge entity %d (class %d) has no free color: |L|=%d, %d taken",
		gb.v.Index, gb.class, len(gb.list), len(gb.taken)))
	gb.color = -1
}

func (gb *greedyByClass) ReceiveBroadcast(r int, in local.Broadcasts) bool {
	for p := 0; p < in.Len(); p++ {
		if c, sent := in.At(p); sent && c >= 0 {
			if gb.taken == nil {
				gb.taken = make(map[int]bool)
			}
			gb.taken[c] = true
		}
	}
	return gb.endOfRound(r)
}

// ReceiveNone implements local.SparseReceiver: rounds in which no neighbor
// announced need no inbox scan — the long quiet stretches of the
// one-class-per-round schedule.
func (gb *greedyByClass) ReceiveNone(r int) bool {
	return gb.endOfRound(r)
}

// NextWake implements local.Sleeper: until its class's round, a quiet edge
// neither sends nor changes state, so the engine may skip it entirely.
func (gb *greedyByClass) NextWake(r int) int { return gb.class + 1 }

func (gb *greedyByClass) endOfRound(r int) bool {
	if r >= gb.class+1 {
		// This edge has announced; its color is final. Halting here (rather
		// than waiting out all k classes) is sound: halting is a per-entity
		// decision in the LOCAL model, and everything this edge will ever
		// send has been delivered.
		gb.chosen[gb.v.Index] = gb.color
		if !gb.picked {
			gb.errs.Set(fmt.Errorf("listcolor: edge entity %d class %d never picked (k=%d)", gb.v.Index, gb.class, gb.k))
		}
		return true
	}
	return false
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
