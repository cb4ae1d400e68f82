// Package core implements the paper's contribution: the deterministic
// (deg(e)+1)-list edge coloring algorithm running in
// log^O(log log Δ) Δ + O(log* n) rounds of the LOCAL model
// (Balliu, Kuhn, Olivetti, PODC 2020).
//
// Structure, mirroring §4 of the paper:
//
//   - solveSlack1 (Lemma 4.2): reduces a slack-1 instance to O(β²·log Δ̄)
//     slack-β instances via defective edge coloring, recursing on the
//     uncolored remainder whose conflict degree halves per sweep.
//   - assignSubspaces (Lemma 4.3 + Lemma 4.4): one list color space
//     reduction — partitions the palette into q ≤ 2p subspaces, computes
//     each edge's level, assigns subspaces directly (levels ≤ 3), through
//     the phased virtual-graph machinery (E(1)), or by a small list
//     coloring (E(2)), guaranteeing Eq. (2):
//     deg′(e) ≤ 24·H_q·log p · |L′e|/|Le| · deg(e).
//   - solveSlackS (Lemma 4.5): chains color space reductions until the
//     palette is constant, then solves with the base solver.
//   - Solve (Theorem 4.1): computes the initial O(Δ̄²) coloring once
//     (O(log* n), package linial) and enters the recursion; the
//     T(2p−1, 1, 2p) sub-instances inside the space reduction are solved by
//     recursing into solveSlack1 on the virtual graph, which with p = √Δ̄
//     realizes the outer "Δ̄ → 2√Δ̄, O(log log Δ̄) iterations" argument of
//     §4.3.
//
// Every sub-instance — a Lemma 4.2 defect class, a Lemma 4.5 chain level,
// the §4.2 virtual graph (Figure 6) — is a member list of top-level items,
// in ascending order, with its own pair system (local.Pairs) and
// member-indexed lists. Virtual graphs are pair systems whose sides are
// virtual node copies, so every subroutine — including the defective
// coloring — runs on them unchanged.
package core

import (
	"fmt"
	"math"

	"github.com/distec/distec/internal/local"
)

// Params tunes the algorithm. The zero value is not valid; use Theory,
// Practical, or fill every field.
type Params struct {
	// Beta returns the slack parameter β used by the Lemma 4.2 reduction
	// for a given conflict-degree bound and palette size. The paper uses
	// β = α·log^{4c} Δ̄ with C = Δ̄^c.
	Beta func(dbar, c int) int

	// P returns the color space reduction parameter p ∈ [2, C] for a given
	// conflict-degree bound and palette size. The paper uses p = √Δ̄.
	P func(dbar, c int) int

	// BaseDegree is the conflict-degree threshold at or below which
	// instances are handed to the base solver (listcolor.SolveOnTopology,
	// O(Δ̄²+log*)). This is the paper's "Δ̄ = O(1)" base case.
	BaseDegree int

	// StopPalette ends the Lemma 4.5 chain: when an instance's palette is
	// at most this, it is solved directly. This is the paper's "palette
	// size becomes constant" base case.
	StopPalette int

	// Strict selects theory mode: every precondition of Lemmas 4.2–4.5 is
	// asserted and a violation is an error. With Strict false (practical
	// mode), an edge whose slack budget runs out is deferred back to the
	// enclosing Lemma 4.2 sweep, which retries it with halved degree — the
	// global invariant |Le| > deg_uncolored(e) makes deferral always safe.
	Strict bool

	// DirectAssignment disables the phased E(1)/E(2) machinery of
	// Lemma 4.3 and lets every edge pick the subspace with the largest
	// list intersection. This is the ablation of experiment E13: it voids
	// the Eq. (2) guarantee and is never used by the presets.
	DirectAssignment bool

	// MaxDepth caps the recursion depth (virtual-graph recursions) as a
	// safety net; the theory guarantees O(log log Δ̄) depth.
	MaxDepth int
}

// Theory returns the paper's parameterization for palette size C = Δ̄^c:
// β = α·log^{4c} Δ̄ and p = ⌈√Δ̄⌉, with all lemma preconditions asserted.
// For every feasible Δ̄ the resulting β exceeds Δ̄, so the algorithm
// provably bottoms out in its base cases immediately — this is the honest
// behavior of the theoretical constants and is itself measured by
// experiment E9.
func Theory(c int, alpha float64) Params {
	if c < 1 {
		c = 1
	}
	if alpha <= 0 {
		alpha = 1
	}
	return Params{
		Beta: func(dbar, _ int) int {
			lg := math.Log2(float64(max(dbar, 2)))
			b := int(math.Ceil(alpha * math.Pow(lg, float64(4*c))))
			return max(b, 1)
		},
		P: func(dbar, _ int) int {
			return max(2, int(math.Ceil(math.Sqrt(float64(dbar)))))
		},
		BaseDegree:  8,
		StopPalette: 8,
		Strict:      true,
		MaxDepth:    64,
	}
}

// Practical returns small constants that drive every code path of the
// algorithm on feasible graphs: β = 2, p = min(⌈√Δ̄⌉, 16), low thresholds,
// deferral instead of assertion. The asymptotic structure is the paper's;
// only the constants differ (Theory has the paper's own).
func Practical() Params {
	return Params{
		Beta: func(dbar, _ int) int { return 2 },
		P: func(dbar, _ int) int {
			p := int(math.Ceil(math.Sqrt(float64(dbar))))
			return max(2, min(p, 16))
		},
		BaseDegree:  6,
		StopPalette: 8,
		Strict:      false,
		MaxDepth:    64,
	}
}

func (p Params) validate() error {
	if p.Beta == nil || p.P == nil {
		return fmt.Errorf("core: Params.Beta and Params.P must be set")
	}
	if p.BaseDegree < 1 {
		return fmt.Errorf("core: Params.BaseDegree must be ≥ 1, got %d", p.BaseDegree)
	}
	if p.StopPalette < 2 {
		return fmt.Errorf("core: Params.StopPalette must be ≥ 2, got %d", p.StopPalette)
	}
	if p.MaxDepth < 1 {
		return fmt.Errorf("core: Params.MaxDepth must be ≥ 1, got %d", p.MaxDepth)
	}
	return nil
}

// Trace accumulates instrumentation counters over one Solve call. All
// fields are best-effort diagnostics; they do not influence the algorithm.
type Trace struct {
	OuterSweeps      int     // Lemma 4.2 sweeps executed
	DefectiveCalls   int     // defective colorings computed
	ClassInstances   int     // slack-β sub-instances solved (non-empty classes)
	ChainLevels      int     // Lemma 4.3 applications (Lemma 4.5 chain steps)
	PhaseInstances   int     // E(1) phase sub-colorings solved
	E2Instances      int     // E(2) sub-colorings solved
	DirectAssigns    int     // edges assigned a subspace at level ≤ 3
	VirtualRecursion int     // virtual-graph instances solved by recursion
	Deferred         int     // edge deferrals (practical mode only)
	BetaBailouts     int     // sweeps abandoned because 2β ≥ Δ̄ (theory preset at feasible Δ̄)
	DeepestRecursion int     // maximum recursion depth reached
	Eq2Worst         float64 // worst measured Eq. (2) degradation factor
	LevelHistogram   [64]int // distribution of Lemma 4.4 levels
	// SweepDegrees records the maximum uncolored conflict degree at the
	// start of each Lemma 4.2 sweep of the top-level instance — the paper's
	// halving argument made observable (experiment E3).
	SweepDegrees []int
}

// seq accumulates sequentially composed costs: rounds and messages add.
func seq(a *local.Stats, b local.Stats) {
	a.Rounds += b.Rounds
	a.Messages += b.Messages
}
