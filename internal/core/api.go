package core

import (
	"fmt"

	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
)

// SolveGraph runs the full algorithm on a list edge coloring instance over a
// graph (package listcolor). It is the main entry point for the public API
// and the experiments.
func SolveGraph(in *listcolor.Instance, params Params, run local.Engine) (*Result, error) {
	if err := in.Validate(1); err != nil {
		return nil, fmt.Errorf("core: invalid instance: %w", err)
	}
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
	if err := params.validate(); err != nil {
		return nil, err
	}
	if run == nil {
		run = local.Sequential
	}
	m := len(pairs)
	if active == nil {
		active = make([]bool, m)
		for i := range active {
			active[i] = true
		}
	}
	s := &Solver{params: params, run: run, trace: &Trace{}}
	prep, err := s.prepare(pairs, active)
	if err != nil {
		return nil, err
	}
	res, err := s.assignSubspaces(assignInput{
		pairs: pairs, active: active, lists: lists, lo: make([]int, m),
		size: c, p: p, depth: 0,
	})
	if err != nil {
		return nil, err
	}
	return &SpaceReduceResult{
		Assign:    res.assign,
		Partition: res.pt,
		Stats:     res.stats,
		PrepStats: prep,
		Trace:     *s.trace,
	}, nil
}

// prepare computes the global O(Δ̄²) initial coloring (Theorem 4.1's
// O(log* n) preamble) and installs it on the solver.
func (s *Solver) prepare(pairs [][2]int64, active []bool) (local.Stats, error) {
	m := len(pairs)
	full := local.PairConflict(pairs)
	sub, orig, _ := local.Induced(full, active, nil)
	init := make([]int, sub.N())
	for i, oe := range orig {
		init[i] = oe
	}
	local.SetSpanLabel(s.run, "linial")
	cols, st, err := linial.Reduce(sub, init, m, s.run)
	if err != nil {
		return st, fmt.Errorf("core: initial Linial coloring: %w", err)
	}
	s.baseCols = make([]int, m)
	for i, oe := range orig {
		s.baseCols[oe] = cols[i]
	}
	s.baseX = linial.Colors(m, sub.MaxDeg)
	return st, nil
}
