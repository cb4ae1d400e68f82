package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/distec/distec/internal/local"
)

// assignInput is one invocation of the list color space reduction
// (Lemma 4.3) over the current conflict system. Each member owns a palette
// interval [lo[k], lo[k]+size) — members sharing a side always share an
// interval, because the Lemma 4.5 chain refines sides and intervals
// together — and a list of absolute colors inside its interval.
type assignInput struct {
	inst  instance
	lo    []int
	size  int
	p     int
	depth int
}

// assignResult carries the chosen subspace index per member (−1 for
// deferred members), the partition used, and the LOCAL cost.
type assignResult struct {
	assign []int
	pt     Partition
	stats  local.Stats
}

// assignSubspaces implements Lemma 4.3: assign one of the q ≤ 2p palette
// subspaces to every member so that Eq. (2) holds —
// deg′(e) ≤ 24·H_q·log p · |L′e|/|Le| · deg(e) — in
// (log p)·(1 + T(2p−1, 1, 2p)) rounds.
func (s *Solver) assignSubspaces(in assignInput) (assignResult, error) {
	local.SetSpanLabel(s.run, "chain")
	inst := in.inst
	n := len(inst.items)
	pt := MakePartition(in.size, in.p)
	q := pt.Q
	res := assignResult{assign: make([]int, n), pt: pt}
	for k := range res.assign {
		res.assign[k] = -1
	}

	// Per-member partition counts and levels (all local computation).
	// counts[k] = |L_k ∩ C_j| over j is member k's window of one n×q slab.
	slab := make([]int, n*q)
	counts := make([][]int, n)
	level := make([]int, n)
	maxLevel := int(math.Log2(float64(q)))
	for k, l := range inst.lists {
		counts[k] = slab[k*q : (k+1)*q : (k+1)*q]
		for _, c := range l {
			off := c - in.lo[k]
			if off < 0 || off >= in.size {
				return res, fmt.Errorf("core: item %d color %d outside its interval [%d,%d)", inst.items[k], c, in.lo[k], in.lo[k]+in.size)
			}
			counts[k][pt.PartOf(off)]++
		}
		lv, ok := Level(counts[k], len(l))
		if !ok {
			return res, fmt.Errorf("core: item %d has no level (Lemma 4.4 violated — bug)", inst.items[k])
		}
		level[k] = lv
		if lv < len(s.trace.LevelHistogram) {
			s.trace.LevelHistogram[lv]++
		}
	}

	// Ablation mode (experiment E13): every item takes the subspace with
	// the largest intersection; no phases, no Eq. (2) guarantee (the audit
	// below still measures the damage, but never asserts).
	if s.params.DirectAssignment {
		for k := range res.assign {
			res.assign[k] = largestPart(counts[k])
			s.trace.DirectAssigns++
		}
		res.stats.Rounds++ // announcing the choice
		return res, s.auditEq2(in, res, counts, false)
	}

	// Levels ≤ 3: pick the largest intersection directly. Even if every
	// neighbor chose the same subspace, |L′| ≥ |L|/(16·H_q) satisfies
	// Eq. (2). One announcement round, charged at the end alongside the
	// phase schedule.
	for k := range res.assign {
		if level[k] <= 3 {
			res.assign[k] = largestPart(counts[k])
			s.trace.DirectAssigns++
		}
	}
	res.stats.Rounds++ // announce direct assignments

	// E(1): level > 3 and deg ≥ 2^level, processed in phases ℓ = 4..⌊log q⌋.
	// E(2): level > 3 and deg < 2^level, processed after all phases.
	for l := 4; l <= maxLevel; l++ {
		var members []int32
		for k := range res.assign {
			if level[k] == l && inst.sys.Degree(k) >= 1<<l {
				members = append(members, int32(k))
			}
		}
		if len(members) == 0 {
			continue
		}
		st, err := s.runPhase(in, res.assign, counts, members, l, q)
		seq(&res.stats, st)
		if err != nil {
			return res, err
		}
	}

	// E(2).
	var e2 []int32
	for k := range res.assign {
		if level[k] > 3 && inst.sys.Degree(k) < 1<<level[k] {
			e2 = append(e2, int32(k))
		}
	}
	if len(e2) > 0 {
		st, err := s.runE2(in, res.assign, counts, level, e2, q)
		seq(&res.stats, st)
		if err != nil {
			return res, err
		}
	}

	// Eq. (2) audit: measure the worst degradation factor and, in strict
	// mode, assert the paper's bound.
	return res, s.auditEq2(in, res, counts, s.params.Strict)
}

// largestPart returns the part with the largest count, the lowest index on
// ties: the first part of sortedByCountDesc's order.
func largestPart(counts []int) int {
	best := 0
	for j, c := range counts {
		if c > counts[best] {
			best = j
		}
	}
	return best
}

// auditEq2 measures the Eq. (2) degradation factor of every assigned member
// and, when assert is set, errors if the paper's bound
// 24·H_q·log p · |L′e|/|Le| is exceeded.
func (s *Solver) auditEq2(in assignInput, res assignResult, counts [][]int, assert bool) error {
	bound := 24 * Harmonic(res.pt.Q) * math.Max(1, math.Log2(float64(in.p)))
	sys := in.inst.sys
	for k, j := range res.assign {
		deg := sys.Degree(k)
		if j < 0 || deg == 0 {
			continue
		}
		degPrime := 0
		for _, side := range sys.Key[k] {
			for _, f := range sys.Side(side) {
				if int(f) != k && res.assign[f] == j {
					degPrime++
				}
			}
		}
		newLen := counts[k][j]
		if newLen == 0 {
			return fmt.Errorf("core: item %d assigned empty subspace %d (bug)", in.inst.items[k], j)
		}
		listLen := len(in.inst.lists[k])
		factor := float64(degPrime) * float64(listLen) / (float64(newLen) * float64(deg))
		if factor > s.trace.Eq2Worst {
			s.trace.Eq2Worst = factor
		}
		if assert && factor > bound+1e-9 {
			return fmt.Errorf("core: Eq.(2) violated at item %d: factor %.3f > bound %.3f (deg=%d deg'=%d |L|=%d |L'|=%d q=%d p=%d)",
				in.inst.items[k], factor, bound, deg, degPrime, listLen, newLen, res.pt.Q, in.p)
		}
	}
	return nil
}

// runPhase executes phase ℓ of the E(1) machinery: compute Je for every
// member, split sides into virtual copies of ≤ 2^(ℓ−2) phase members, and
// solve the (deg(e)+1)-list coloring on the virtual graph with palette q.
func (s *Solver) runPhase(in assignInput, assign []int, counts [][]int, members []int32, l, q int) (local.Stats, error) {
	var stats local.Stats
	stats.Rounds++ // learn neighbors' prior assignments (Je determination)
	s.trace.PhaseInstances++
	inst := in.inst

	// Je: candidate subspaces with large intersection and few prior takers.
	je := make([][]int, len(members))
	for i, k := range members {
		takers := make([]int, len(counts[k]))
		for _, side := range inst.sys.Key[k] {
			for _, f := range inst.sys.Side(side) {
				if f != k && assign[f] >= 0 {
					takers[assign[f]]++
				}
			}
		}
		cands := LevelCandidates(counts[k], len(inst.lists[k]), l)
		budget := inst.sys.Degree(int(k)) / (1 << (l - 1))
		var keep []int
		for _, j := range cands {
			if takers[j] <= budget {
				keep = append(keep, j)
			}
		}
		sort.Ints(keep)
		if s.params.Strict && len(keep) < 1<<(l-1) {
			return stats, fmt.Errorf("core: phase %d item %d has |Je|=%d < 2^(ℓ−1)=%d (Lemma 4.3 bookkeeping violated)",
				l, inst.items[k], len(keep), 1<<(l-1))
		}
		je[i] = keep
	}

	// The virtual graph's degree is ≤ 2^(ℓ−1)−2; the assignment instance's
	// lists are the Je sets over palette {0..q−1}.
	virtual := virtualPairs(inst.sys.Sub(members), 1<<(l-2))
	var kept []int32
	var lists [][]int
	for i, k := range members {
		vdeg := virtual.Degree(i)
		if vdeg > (1<<(l-1))-2 {
			return stats, fmt.Errorf("core: phase %d virtual degree %d exceeds 2^(ℓ−1)−2=%d (bug)", l, vdeg, (1<<(l-1))-2)
		}
		if len(je[i]) <= vdeg {
			if s.params.Strict {
				return stats, fmt.Errorf("core: phase %d item %d: |Je|=%d ≤ virtual degree %d", l, inst.items[k], len(je[i]), vdeg)
			}
			// Practical mode: defer this item; shrink its footprint.
			s.trace.Deferred++
			continue
		}
		kept = append(kept, int32(i))
		lists = append(lists, je[i])
	}

	vinst := instance{items: pick(inst.items, pick(members, kept)), sys: virtual.Sub(kept), lists: lists, c: q}
	choice, st, err := s.solveVirtual(vinst, in.depth)
	seq(&stats, st)
	if err != nil {
		return stats, err
	}
	for i, mi := range kept {
		if choice[i] >= 0 {
			assign[members[mi]] = choice[i]
		} else {
			s.trace.Deferred++
		}
	}
	return stats, nil
}

// runE2 assigns subspaces to the low-degree, high-level members after all
// phases: each picks among its > deg(e) non-empty candidate subspaces one
// that no already-assigned neighbor took, via a (deg+1)-list coloring over
// the E(2) subsystem with palette q.
func (s *Solver) runE2(in assignInput, assign []int, counts [][]int, level []int, e2 []int32, q int) (local.Stats, error) {
	var stats local.Stats
	stats.Rounds++ // learn the subspaces taken by assigned neighbors
	s.trace.E2Instances++

	inst := in.inst
	inE2 := make([]bool, len(inst.items))
	for _, k := range e2 {
		inE2[k] = true
	}
	lists := make([][]int, len(e2))
	for changed := true; changed; {
		changed = false
		for i, k := range e2 {
			if !inE2[k] {
				continue
			}
			taken := make([]bool, len(counts[k]))
			degE2 := 0
			for _, side := range inst.sys.Key[k] {
				for _, f := range inst.sys.Side(side) {
					if f == k {
						continue
					}
					if assign[f] >= 0 {
						taken[assign[f]] = true
					} else if inE2[f] {
						degE2++
					}
				}
			}
			var free []int
			for _, j := range LevelCandidates(counts[k], len(inst.lists[k]), level[k]) {
				if !taken[j] {
					free = append(free, j)
				}
			}
			sort.Ints(free)
			if len(free) <= degE2 {
				if s.params.Strict {
					return stats, fmt.Errorf("core: E(2) item %d has %d free subspaces for E2-degree %d", inst.items[k], len(free), degE2)
				}
				s.trace.Deferred++
				inE2[k] = false // defer: removing it can only help others
				changed = true
				continue
			}
			lists[i] = free
		}
	}
	var keep []int32
	var keptLists [][]int
	for i, k := range e2 {
		if inE2[k] {
			keep = append(keep, k)
			keptLists = append(keptLists, lists[i])
		}
	}
	if len(keep) == 0 {
		return stats, nil
	}
	local.SetSpanLabel(s.run, "chain")
	sub := inst.sub(keep, keptLists)
	sub.c = q
	choice, st, err := s.solveBase(sub)
	seq(&stats, st)
	if err != nil {
		return stats, fmt.Errorf("core: E(2) assignment: %w", err)
	}
	for i, k := range keep {
		if choice[i] >= 0 {
			assign[k] = choice[i]
		}
	}
	return stats, nil
}

// solveVirtual solves the T(2p−1, 1, 2p)-style sub-instance arising inside
// the space reduction. Large instances recurse into the full algorithm
// (realizing the Δ̄ → 2√Δ̄ outer recursion of §4.3); small ones go to the
// base solver.
func (s *Solver) solveVirtual(inst instance, depth int) ([]int, local.Stats, error) {
	if inst.sys.MaxDegree() > s.params.BaseDegree && depth+1 < s.params.MaxDepth {
		s.trace.VirtualRecursion++
		return s.solveSlack1(inst, depth+1)
	}
	local.SetSpanLabel(s.run, "base")
	return s.solveBase(inst)
}

// virtualPairs splits every side of the phase members' system into
// virtual copies holding at most groupSize members each, in side order
// (Figure 6): a member's rank at a side is its position there.
func virtualPairs(phase *local.Pairs, groupSize int32) *local.Pairs {
	keys := make([][2]int64, len(phase.Key))
	for i, pos := range phase.Pos {
		for x, side := range phase.Key[i] {
			keys[i][x] = int64(side)<<32 | int64(pos[x]/groupSize)
		}
	}
	return local.NewPairs(keys)
}
