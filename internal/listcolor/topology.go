package listcolor

import (
	"fmt"

	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/local"
)

// SolveOnTopology runs the base solver on an arbitrary conflict topology:
// Linial-reduce the initial coloring (a proper coloring with x colors,
// indexed by entity) to O(Δ²) classes, then one greedy class per round.
// Every entity's list must strictly exceed its topology degree. This is the
// engine shared by SolveBase (edge entities), the paper's recursion (the
// topology of a pair-system sub-instance, local.Pairs) and the vertex
// coloring extension (node entities).
func SolveOnTopology(t *local.Topology, initial []int, x int, lists [][]int, run local.Engine) ([]int, local.Stats, error) {
	if run == nil {
		run = local.Sequential
	}
	if len(lists) != t.N() {
		return nil, local.Stats{}, fmt.Errorf("listcolor: %d lists for %d entities", len(lists), t.N())
	}
	for i := 0; i < t.N(); i++ {
		if len(lists[i]) <= t.Degree(i) {
			return nil, local.Stats{}, fmt.Errorf("listcolor: entity %d has |L|=%d ≤ degree %d", i, len(lists[i]), t.Degree(i))
		}
	}
	classes, stats, err := linial.Reduce(t, initial, x, run)
	if err != nil {
		return nil, stats, err
	}
	chosen := make([]int, t.N())
	errs := &local.ErrorSink{}
	g := newGreedyRun(t, classes, linial.Colors(x, t.MaxDeg), lists, chosen, errs)
	gs, err := run.Run(t, func(v local.View) local.Protocol { return &g.slab[v.Index] }, nil)
	stats.Rounds += gs.Rounds
	stats.Messages += gs.Messages
	if err != nil {
		return nil, stats, err
	}
	if err := errs.Err(); err != nil {
		return nil, stats, err
	}
	return chosen, stats, nil
}
