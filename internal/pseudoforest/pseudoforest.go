// Package pseudoforest implements the O(Δ + log* n) deterministic
// (deg(e)+1)-list edge coloring baseline in the style of Panconesi and Rizzi
// [PR01], which the paper cites as the long-standing linear-in-Δ bound that
// Theorem 4.1 improves upon.
//
// Algorithm:
//
//  1. Orient every edge toward its higher-ID endpoint and let the k-th
//     out-edge of each node form pseudoforest F_k: each node has out-degree
//     at most one within F_k, so F_k is a union of in-trees and cycles.
//  2. 3-color the nodes of ALL pseudoforests simultaneously in O(log* n)
//     rounds with Cole–Vishkin bit reduction along out-edges, followed by
//     shift-down + class removal from 6 to 3 colors.
//  3. Process the pseudoforests sequentially; within F_k, process tail
//     colors c ∈ {0,1,2} in sub-rounds. A tail u with color c proposes its
//     out-edge {u,v} to the head v together with the colors already used
//     around u; v assigns every proposing in-edge the smallest list color
//     free at both endpoints, distinct among its simultaneous assignments.
//     Same-colored tails never collide except at a common head, and the
//     head serializes those — so every assignment is safe, and the number
//     of constraints on edge e is at most deg(e) < |Le|.
//
// Total: O(log* n) + 6Δ rounds, implemented as a genuine message-passing
// protocol on the node topology (the entities are the graph's *nodes*,
// unlike the edge-entity algorithms elsewhere).
package pseudoforest

import (
	"fmt"
	"sort"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// cvSchedule returns the Cole–Vishkin color-count sequence from x down to
// its ≤6 fixpoint: K → 2·⌈log₂ K⌉.
func cvSchedule(x int) []int {
	var seq []int
	k := x
	for k > 6 {
		b := bits(k)
		next := 2 * b
		if next >= k {
			break
		}
		seq = append(seq, next)
		k = next
	}
	return seq
}

// bits returns the number of bits needed to represent values in [0, k),
// i.e. ⌈log₂ k⌉ for k ≥ 2.
func bits(k int) int {
	b := 0
	for v := k - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// Solve colors the active edges of g from their lists. All lists must be
// strictly larger than the edge's active degree. active and lists are
// indexed by EdgeID; active may be nil for all edges. Returns a color per
// edge (−1 inactive) and the protocol stats.
func Solve(g *graph.Graph, active []bool, lists [][]int, run local.Engine) ([]int, local.Stats, error) {
	if run == nil {
		run = local.Sequential
	}
	m := g.M()
	if active == nil {
		active = make([]bool, m)
		for e := range active {
			active[e] = true
		}
	}
	if len(lists) != m {
		return nil, local.Stats{}, fmt.Errorf("pseudoforest: %d lists for %d edges", len(lists), m)
	}
	// Input validation: the slack-1 condition against active degrees.
	adeg := make([]int, g.N())
	for e := 0; e < m; e++ {
		if active[e] {
			u, v := g.Endpoints(graph.EdgeID(e))
			adeg[u]++
			adeg[v]++
		}
	}
	for e := 0; e < m; e++ {
		if !active[e] {
			continue
		}
		u, v := g.Endpoints(graph.EdgeID(e))
		if len(lists[e]) <= adeg[u]+adeg[v]-2 {
			return nil, local.Stats{}, fmt.Errorf("pseudoforest: edge %d has |L|=%d ≤ deg=%d", e, len(lists[e]), adeg[u]+adeg[v]-2)
		}
	}

	tp := local.FromGraph(g)
	out := make([]int, m)
	for e := range out {
		out[e] = -1
	}
	errs := &local.ErrorSink{}
	maxOut := 0
	for v := 0; v < g.N(); v++ {
		k := 0
		for _, e := range g.Incident(v) {
			if active[e] && g.OtherEnd(e, v) > v {
				k++
			}
		}
		if k > maxOut {
			maxOut = k
		}
	}
	cv := cvSchedule(g.N())
	factory := func(view local.View) local.Protocol {
		return newNodeProto(view, g, active, lists, cv, maxOut, out, errs)
	}
	stats, err := run.Run(tp, factory, nil)
	if err != nil {
		return nil, stats, err
	}
	if err := errs.Err(); err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// edgeSlot is a node's local record of one incident active edge.
type edgeSlot struct {
	port   int          // port to the other endpoint
	id     graph.EdgeID // global edge ID (known to both endpoints)
	list   []int        // the edge's color list (known to both endpoints)
	tail   bool         // true if this node is the tail (lower index)
	forest int          // pseudoforest index (valid when tail)
	color  int          // assigned color, −1 until decided
}

// nodeProto is the per-node protocol state machine.
type nodeProto struct {
	v      local.View
	slots  []edgeSlot // active incident edges, in port order
	bySlot []int      // port -> slot index (−1 if inactive)

	cv      []int // CV schedule (color counts per step)
	maxOut  int   // global bound on out-degrees (phases to run)
	colors  []int // my CV color per forest (index = forest)
	parents []int // slot index of my out-edge per forest (−1 none)

	out     []int
	errs    *local.ErrorSink
	pending []pendingAssign // head-side assignments awaiting the reply round

	nRounds int // total scheduled rounds
}

// message types exchanged between nodes.
type cvMsg struct {
	Colors []int // sender's per-forest colors
}

type proposeMsg struct {
	Forest int
	Used   []int // colors already used on edges around the tail
}

type assignMsg struct {
	Color int
}

func newNodeProto(view local.View, g *graph.Graph, active []bool, lists [][]int, cv []int, maxOut int, out []int, errs *local.ErrorSink) *nodeProto {
	me := view.Index
	np := &nodeProto{
		v:      view,
		cv:     cv,
		maxOut: maxOut,
		out:    out,
		errs:   errs,
		bySlot: make([]int, view.Degree),
	}
	inc := g.Incident(me)
	forest := 0
	for p, e := range inc {
		np.bySlot[p] = -1
		if !active[e] {
			continue
		}
		other := g.OtherEnd(e, me)
		slot := edgeSlot{port: p, id: e, list: lists[e], tail: other > me, color: -1, forest: -1}
		if slot.tail {
			slot.forest = forest
			forest++
		}
		np.bySlot[p] = len(np.slots)
		np.slots = append(np.slots, slot)
	}
	np.colors = make([]int, maxOut)
	np.parents = make([]int, maxOut)
	for f := range np.parents {
		np.parents[f] = -1
	}
	for si, s := range np.slots {
		if s.tail {
			np.parents[s.forest] = si
		}
	}
	for f := range np.colors {
		np.colors[f] = me
	}
	// Schedule: 1 setup round (tails announce forest indices), len(cv) CV
	// rounds, 6 shift/remove rounds, then 6·maxOut proposal/assignment
	// rounds.
	np.nRounds = 1 + len(cv) + 6 + 6*maxOut
	return np
}

// forestMsg is the setup announcement: the tail tells the head which
// pseudoforest their shared edge belongs to.
type forestMsg struct {
	Forest int
}

func (np *nodeProto) broadcastColors() []local.Message {
	msgs := make([]local.Message, np.v.Degree)
	c := append([]int(nil), np.colors...)
	for p := range msgs {
		msgs[p] = cvMsg{Colors: c}
	}
	return msgs
}

func (np *nodeProto) Send(r int) []local.Message {
	switch {
	case r == 1:
		// Setup: tails announce each out-edge's forest index to its head.
		var msgs []local.Message
		for _, s := range np.slots {
			if s.tail {
				if msgs == nil {
					msgs = make([]local.Message, np.v.Degree)
				}
				msgs[s.port] = forestMsg{Forest: s.forest}
			}
		}
		return msgs
	case r <= 1+len(np.cv)+6:
		// CV and shift/remove rounds: everyone broadcasts its color vector.
		return np.broadcastColors()
	default:
		t := r - 1 - len(np.cv) - 6 - 1 // 0-based index into the 6·maxOut phase rounds
		forest := t / 6
		step := t % 6 // 0,2,4: propose (tail color 0,1,2); 1,3,5: assign replies
		if step%2 == 0 {
			tailColor := step / 2
			return np.sendProposal(forest, tailColor)
		}
		return np.sendAssignments()
	}
}

func (np *nodeProto) sendProposal(forest, tailColor int) []local.Message {
	si := -1
	if forest < len(np.parents) {
		si = np.parents[forest]
	}
	if si < 0 || np.slots[si].color >= 0 || np.colors[forest] != tailColor {
		return nil
	}
	used := np.usedColors()
	msgs := make([]local.Message, np.v.Degree)
	msgs[np.slots[si].port] = proposeMsg{Forest: forest, Used: used}
	return msgs
}

// pendingAssign is a head-side decision recorded in Receive and flushed by
// the next Send.
type pendingAssign struct {
	port  int
	color int
}

func (np *nodeProto) sendAssignments() []local.Message {
	if len(np.pending) == 0 {
		return nil
	}
	msgs := make([]local.Message, np.v.Degree)
	for _, pa := range np.pending {
		msgs[pa.port] = assignMsg{Color: pa.color}
	}
	np.pending = np.pending[:0]
	return msgs
}

func (np *nodeProto) usedColors() []int {
	var used []int
	for _, s := range np.slots {
		if s.color >= 0 {
			used = append(used, s.color)
		}
	}
	sort.Ints(used)
	return used
}

func (np *nodeProto) Receive(r int, inbox []local.Message) bool {
	switch {
	case r == 1:
		for p, msg := range inbox {
			fm, ok := msg.(forestMsg)
			if !ok {
				continue
			}
			if si := np.bySlot[p]; si >= 0 {
				np.slots[si].forest = fm.Forest
			}
		}
	case r <= 1+len(np.cv):
		np.cvStep(np.cv[r-2], inbox)
	case r <= 1+len(np.cv)+6:
		np.shiftRemoveStep(r-len(np.cv)-2, inbox)
	default:
		t := r - 1 - len(np.cv) - 6 - 1
		step := t % 6
		if step%2 == 0 {
			np.collectProposals(inbox)
		} else {
			np.collectAssignments(inbox)
		}
	}
	return r >= np.nRounds
}

// cvStep applies one Cole–Vishkin bit reduction per forest: the new color
// encodes the lowest bit position where my color differs from my parent's,
// plus my bit there. Roots pretend their parent flipped their lowest bit.
func (np *nodeProto) cvStep(newK int, inbox []local.Message) {
	parentColors := np.parentColors(inbox)
	for f := range np.colors {
		mine := np.colors[f]
		pc, hasParent := parentColors[f]
		if !hasParent {
			pc = mine ^ 1
		}
		if pc == mine {
			np.errs.Set(fmt.Errorf("pseudoforest: node %d forest %d: parent shares CV color %d", np.v.Index, f, mine))
			return
		}
		i := 0
		for (mine>>i)&1 == (pc>>i)&1 {
			i++
		}
		np.colors[f] = 2*i + (mine>>i)&1
		if np.colors[f] >= newK {
			np.errs.Set(fmt.Errorf("pseudoforest: node %d forest %d: CV color %d ≥ %d", np.v.Index, f, np.colors[f], newK))
			return
		}
	}
}

// shiftRemoveStep runs the 6→3 reduction: rounds alternate shift-down
// (adopt parent's color; roots rotate) and removal of color class 3+step.
func (np *nodeProto) shiftRemoveStep(step int, inbox []local.Message) {
	parentColors := np.parentColors(inbox)
	childColors := np.childColors(inbox)
	if step%2 == 0 {
		// Shift down: adopt the parent's color; roots rotate within {0,1,2}
		// so that removed classes are never reintroduced ((c+1)%3 ≠ c for
		// every c < 6, which keeps the root proper toward its children, who
		// all adopt the root's previous color this round).
		for f := range np.colors {
			if pc, ok := parentColors[f]; ok {
				np.colors[f] = pc
			} else {
				np.colors[f] = (np.colors[f] + 1) % 3
			}
		}
		return
	}
	target := 5 - step/2 // classes 5, 4, 3
	for f := range np.colors {
		if np.colors[f] != target {
			continue
		}
		blocked := [3]bool{}
		if pc, ok := parentColors[f]; ok && pc < 3 {
			blocked[pc] = true
		}
		for _, cc := range childColors[f] {
			if cc < 3 {
				blocked[cc] = true
			}
		}
		picked := -1
		for c := 0; c < 3; c++ {
			if !blocked[c] {
				picked = c
				break
			}
		}
		if picked < 0 {
			np.errs.Set(fmt.Errorf("pseudoforest: node %d forest %d: no free color in {0,1,2}", np.v.Index, f))
			return
		}
		np.colors[f] = picked
	}
}

// parentColors extracts, per forest, the color of this node's parent from
// the broadcast color vectors.
func (np *nodeProto) parentColors(inbox []local.Message) map[int]int {
	out := make(map[int]int, len(np.parents))
	for f, si := range np.parents {
		if si < 0 {
			continue
		}
		msg := inbox[np.slots[si].port]
		if msg == nil {
			continue
		}
		cm := msg.(cvMsg)
		if f < len(cm.Colors) {
			out[f] = cm.Colors[f]
		}
	}
	return out
}

// childColors extracts, per forest, the colors of this node's children:
// the neighbors whose out-edge in that forest points at this node. The
// forest index of each in-edge was announced by its tail in the setup round.
func (np *nodeProto) childColors(inbox []local.Message) map[int][]int {
	out := make(map[int][]int)
	for _, s := range np.slots {
		if s.tail || s.forest < 0 {
			continue
		}
		msg := inbox[s.port]
		if msg == nil {
			continue
		}
		cm := msg.(cvMsg)
		if s.forest < len(cm.Colors) {
			out[s.forest] = append(out[s.forest], cm.Colors[s.forest])
		}
	}
	return out
}

func (np *nodeProto) collectProposals(inbox []local.Message) {
	type prop struct {
		slot int
		used []int
	}
	var props []prop
	for p, msg := range inbox {
		if msg == nil {
			continue
		}
		pm, ok := msg.(proposeMsg)
		if !ok {
			continue
		}
		si := np.bySlot[p]
		if si < 0 {
			np.errs.Set(fmt.Errorf("pseudoforest: node %d: proposal on inactive port %d", np.v.Index, p))
			return
		}
		props = append(props, prop{slot: si, used: pm.Used})
	}
	if len(props) == 0 {
		return
	}
	// Deterministic order: by port.
	sort.Slice(props, func(i, j int) bool { return np.slots[props[i].slot].port < np.slots[props[j].slot].port })
	myUsed := make(map[int]bool)
	for _, s := range np.slots {
		if s.color >= 0 {
			myUsed[s.color] = true
		}
	}
	for _, pr := range props {
		s := &np.slots[pr.slot]
		tailUsed := make(map[int]bool, len(pr.used))
		for _, c := range pr.used {
			tailUsed[c] = true
		}
		picked := -1
		for _, c := range s.list {
			if !myUsed[c] && !tailUsed[c] {
				picked = c
				break
			}
		}
		if picked < 0 {
			np.errs.Set(fmt.Errorf("pseudoforest: node %d: no free color for edge %d (|L|=%d)", np.v.Index, s.id, len(s.list)))
			return
		}
		s.color = picked
		myUsed[picked] = true
		np.out[s.id] = picked
		np.pending = append(np.pending, pendingAssign{port: s.port, color: picked})
	}
}

func (np *nodeProto) collectAssignments(inbox []local.Message) {
	for p, msg := range inbox {
		if msg == nil {
			continue
		}
		am, ok := msg.(assignMsg)
		if !ok {
			continue
		}
		si := np.bySlot[p]
		if si >= 0 {
			np.slots[si].color = am.Color
		}
	}
}
