package core

import (
	"fmt"

	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
)

// SolveGraph runs the full algorithm on a list edge coloring instance over a
// graph (package listcolor). It is the main entry point for the public API
// and the experiments; Solve validates the instance.
func SolveGraph(in *listcolor.Instance, params Params, run local.Engine) (*Result, error) {
	return Solve(local.GraphPairs(in.G), in.Active, in.Lists, in.C, params, run)
}

// SpaceReduceResult is the outcome of a single color space reduction,
// exposed for the Lemma 4.3 experiments (E6, E13).
type SpaceReduceResult struct {
	// Assign maps item index to its subspace in [0, Partition.Q); −1 for
	// inactive or deferred items.
	Assign []int
	// Partition is the palette split that was applied.
	Partition Partition
	// Stats is the LOCAL cost of the assignment (excluding the preparatory
	// Linial pass, reported separately in PrepStats).
	Stats local.Stats
	// PrepStats is the cost of the initial O(Δ̄²) coloring.
	PrepStats local.Stats
	// Trace holds the instrumentation of the reduction, including the
	// worst measured Eq. (2) factor (Eq2Worst) and the level histogram.
	Trace Trace
}

// SpaceReduceOnce applies one list color space reduction (Lemma 4.3) with
// parameter p to an instance whose lists draw from the palette [0, C). It
// is the experiment hook behind E6 (Eq. (2) quality), E11 (virtual split)
// and E13 (phased vs direct ablation).
func SpaceReduceOnce(pairs [][2]int64, active []bool, lists [][]int, c, p int, params Params, run local.Engine) (*SpaceReduceResult, error) {
	s, inst, err := newSolver(pairs, active, lists, c, params, run)
	if err != nil {
		return nil, err
	}
	prep, err := s.prepare(inst, len(pairs))
	if err != nil {
		return nil, err
	}
	res, err := s.assignSubspaces(assignInput{inst: inst, lo: make([]int, len(inst.items)), size: c, p: p, depth: 0})
	if err != nil {
		return nil, err
	}
	assign := make([]int, len(pairs))
	for e := range assign {
		assign[e] = -1
	}
	for k, e := range inst.items {
		assign[e] = res.assign[k]
	}
	return &SpaceReduceResult{
		Assign:    assign,
		Partition: res.pt,
		Stats:     res.stats,
		PrepStats: prep,
		Trace:     *s.trace,
	}, nil
}

// newSolver returns a solver over the items of pairs that active marks
// (every item when active is nil) and the top-level instance of those
// items with their lists.
func newSolver(pairs [][2]int64, active []bool, lists [][]int, c int, params Params, run local.Engine) (*Solver, instance, error) {
	if err := params.validate(); err != nil {
		return nil, instance{}, err
	}
	if run == nil {
		run = local.Sequential
	}
	sys, items := local.ActivePairs(pairs, active)
	inst := instance{items: items, sys: sys, lists: pick(lists, items), c: c}
	return &Solver{params: params, run: run, trace: &Trace{}}, inst, nil
}

// prepare computes the global O(Δ̄²) initial coloring of the top-level
// instance (Theorem 4.1's O(log* n) preamble, seeded with item indices
// from a universe of m items) and installs it on the solver.
func (s *Solver) prepare(inst instance, m int) (local.Stats, error) {
	s.baseCols = make([]int, m)
	if maxDeg := inst.sys.MaxDegree(); maxDeg > 0 && len(linial.Plan(m, maxDeg)) == 0 {
		// No Linial step shrinks m colors at this degree, so the item
		// indices, already a proper coloring, are the preamble's output,
		// as linial.Reduce would return them: zero rounds, no topology.
		for _, e := range inst.items {
			s.baseCols[e] = int(e)
		}
		s.baseX = m
		return local.Stats{}, nil
	}
	topo := inst.sys.Topology()
	init := make([]int, len(inst.items))
	for k, e := range inst.items {
		init[k] = int(e)
	}
	local.SetSpanLabel(s.run, "linial")
	cols, st, err := linial.Reduce(topo, init, m, s.run)
	if err != nil {
		return st, fmt.Errorf("core: initial Linial coloring: %w", err)
	}
	for k, e := range inst.items {
		s.baseCols[e] = cols[k]
	}
	s.baseX = linial.Colors(m, topo.MaxDeg)
	return st, nil
}
