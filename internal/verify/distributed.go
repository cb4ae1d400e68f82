package verify

import (
	"fmt"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// DistributedCheck verifies a coloring the way a deployed system would: as a
// one-round LOCAL protocol in which every entity announces its color and
// checks its inbox for duplicates. It returns the verdict and the (always 1)
// round count, and exercises the same runtime the algorithms use — so it
// doubles as an end-to-end test of the message path.
//
// This mirrors the local-checkability property that makes edge coloring an
// LCL problem (the class the paper's LOCAL-model program is about): a
// coloring is globally valid iff every radius-1 view is valid.
func DistributedCheck(t *local.Topology, colors []int, run local.Engine) (bool, local.Stats, error) {
	if run == nil {
		run = local.Sequential
	}
	if len(colors) != t.N() {
		return false, local.Stats{}, fmt.Errorf("verify: %d colors for %d entities", len(colors), t.N())
	}
	verdicts := make([]bool, t.N())
	factory := func(v local.View) local.Protocol {
		return &checkProto{v: v, color: colors[v.Index], verdicts: verdicts}
	}
	stats, err := run.Run(t, factory, nil)
	if err != nil {
		return false, stats, err
	}
	for _, ok := range verdicts {
		if !ok {
			return false, stats, nil
		}
	}
	return true, stats, nil
}

// checkProto is the one-round check: every entity broadcasts its color (a
// local.Broadcaster) and compares it with its neighbors'.
type checkProto struct {
	v        local.View
	color    int
	verdicts []bool
}

func (cp *checkProto) Send(r int) []local.Message { return local.SendPerPort(cp, r, cp.v.Degree) }

func (cp *checkProto) Receive(r int, inbox []local.Message) bool {
	return local.ReceivePerPort(cp, r, inbox)
}

func (cp *checkProto) Broadcast(r int) (int, bool) { return cp.color, true }

func (cp *checkProto) ReceiveBroadcast(r int, in local.Broadcasts) bool {
	ok := cp.color >= 0
	for p := 0; p < in.Len(); p++ {
		if c, sent := in.At(p); sent && c == cp.color {
			ok = false
		}
	}
	cp.verdicts[cp.v.Index] = ok
	return true
}

// DistributedCheckEdges runs DistributedCheck on the edge-conflict topology
// of a graph.
func DistributedCheckEdges(g *graph.Graph, colors []int, run local.Engine) (bool, local.Stats, error) {
	return DistributedCheck(local.EdgeConflict(g), colors, run)
}
