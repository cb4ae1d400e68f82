package core

import (
	"fmt"
	"sort"

	"github.com/distec/distec/internal/defective"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
)

// instance is a working list coloring instance: a member list of items of
// the top-level universe, in ascending order, with the members' own pair
// system (member k is item k of sys) and lists. Every sub-instance of the
// recursion is one, so each sees its members in the parent's order.
type instance struct {
	items []int32      // top-level item index of each member, ascending
	sys   *local.Pairs // the members' conflict system
	lists [][]int      // lists[k] is member k's list
	c     int          // palette size: list colors lie in [0, c)
}

// sub returns the instance of the members keep (ascending member indices)
// with the given lists, on the same sides.
func (in instance) sub(keep []int32, lists [][]int) instance {
	return instance{items: pick(in.items, keep), sys: in.sys.Sub(keep), lists: lists, c: in.c}
}

// pick returns xs[k] for each k of keep.
func pick[T any](xs []T, keep []int32) []T {
	out := make([]T, len(keep))
	for i, k := range keep {
		out[i] = xs[k]
	}
	return out
}

// Solver executes the paper's algorithm with fixed parameters over one item
// universe. It is created per Solve call and is not safe for concurrent use.
//
// seen is prunedList's palette-indexed scratch: while a member is pruned,
// seen[c] == stamp marks color c as taken next to it. Calls to prunedList
// never nest, so one scratch serves the top level, every class instance and
// every virtual recursion; it grows to the largest palette seen, and each
// call takes a fresh stamp, which a 64-bit counter never repeats.
type Solver struct {
	params   Params
	run      local.Engine
	baseCols []int // proper O(Δ̄²)-coloring of the full active conflict system
	baseX    int
	trace    *Trace
	seen     []uint64
	stamp    uint64
}

// Result is the outcome of Solve.
type Result struct {
	// Colors maps item index to its chosen color (−1 for inactive items).
	Colors []int
	// Stats is the total LOCAL cost, sequentially composed across the whole
	// recursion (independent same-level sub-instances execute simultaneously
	// and are charged once by construction: they are solved in a single
	// combined system).
	Stats local.Stats
	// Trace holds instrumentation counters.
	Trace Trace
}

// Solve runs the full algorithm of Theorem 4.1 on a pair system: item i
// occupies side keys pairs[i], conflicting items must receive different
// colors, and each active item must be colored from its list. Every active
// item's list must be strictly larger than its active conflict degree (the
// (deg(e)+1)-list edge coloring condition); C is the palette size.
//
// The returned coloring always covers every active item: in practical mode
// deferrals are retried by the enclosing sweeps and the final base solve is
// guaranteed by the invariant that coloring a neighbor removes at most one
// list color while reducing the uncolored degree by exactly one.
func Solve(pairs [][2]int64, active []bool, lists [][]int, c int, params Params, run local.Engine) (*Result, error) {
	m := len(pairs)
	if len(lists) != m || active != nil && len(active) != m {
		return nil, fmt.Errorf("core: lists/active sized %d/%d for %d items", len(lists), len(active), m)
	}
	s, inst, err := newSolver(pairs, active, lists, c, params, run)
	if err != nil {
		return nil, err
	}
	for k, e := range inst.items {
		l := inst.lists[k]
		if deg := inst.sys.Degree(k); len(l) <= deg {
			return nil, fmt.Errorf("core: item %d violates (deg+1)-list condition: |L|=%d, deg=%d", e, len(l), deg)
		}
		for i, col := range l {
			if col < 0 || col >= c {
				return nil, fmt.Errorf("core: item %d color %d outside palette [0,%d)", e, col, c)
			}
			if i > 0 && l[i-1] >= col {
				return nil, fmt.Errorf("core: item %d list not strictly ascending", e)
			}
		}
	}

	// Theorem 4.1 preamble: one O(log* n) Linial pass computes the global
	// O(Δ̄²)-coloring handed to every subsequent subroutine as its initial
	// coloring, so log* is paid exactly once.
	var stats local.Stats
	st, err := s.prepare(inst, m)
	seq(&stats, st)
	if err != nil {
		return nil, err
	}

	colors, st, err := s.solveSlack1(inst, 0)
	seq(&stats, st)
	if err != nil {
		return nil, err
	}
	// Output contract: every active item colored from its list, no two
	// conflicting items sharing a color. O(Σdeg) — negligible next to the
	// solve itself, and it turns any internal bug into an error rather than
	// a silently wrong coloring.
	out := make([]int, m)
	for e := range out {
		out[e] = -1
	}
	for k, e := range inst.items {
		col := colors[k]
		if col < 0 {
			return nil, fmt.Errorf("core: item %d left uncolored (bug)", e)
		}
		if !containsSorted(inst.lists[k], col) {
			return nil, fmt.Errorf("core: item %d color %d not in its list (bug)", e, col)
		}
		for _, side := range inst.sys.Key[k] {
			for _, f := range inst.sys.Side(side) {
				if int(f) != k && colors[f] == col {
					return nil, fmt.Errorf("core: items %d and %d share color %d (bug)", e, inst.items[f], col)
				}
			}
		}
		out[e] = col
	}
	return &Result{Colors: out, Stats: stats, Trace: *s.trace}, nil
}

// containsSorted reports whether ascending list l contains x.
func containsSorted(l []int, x int) bool {
	i := sort.SearchInts(l, x)
	return i < len(l) && l[i] == x
}

// solveSlack1 implements Lemma 4.2, T(Δ̄, 1, C): sweeps of defective
// coloring with parameter β, iterating over the O(β²) defect classes,
// marking edges whose pruned list exceeds half their degree, solving each
// marked class as a slack-β instance, and recursing on the uncolored
// remainder (whose conflict degree provably halves per sweep). It returns
// a color per member.
func (s *Solver) solveSlack1(inst instance, depth int) ([]int, local.Stats, error) {
	if depth > s.trace.DeepestRecursion {
		s.trace.DeepestRecursion = depth
	}
	colors := make([]int, len(inst.items))
	cur := make([]int32, len(inst.items)) // the uncolored members
	for k := range colors {
		colors[k], cur[k] = -1, int32(k)
	}
	var stats local.Stats

	for sweep := 0; len(cur) > 0; sweep++ {
		curSys := inst.sys.Sub(cur)
		dbar := curSys.MaxDegree()
		if depth == 0 {
			s.trace.SweepDegrees = append(s.trace.SweepDegrees, dbar)
		}
		beta := max(1, s.params.Beta(dbar, inst.c))
		if dbar <= s.params.BaseDegree || 2*beta >= dbar || sweep >= 64 {
			// Base cases: constant degree (the paper's T(O(1),·,·)), or a β
			// so large that the slack machinery cannot gain (for feasible Δ̄
			// the theory parameterization always lands here — experiment E9),
			// or the sweep guard (practical-mode stall safety).
			if 2*beta >= dbar && dbar > s.params.BaseDegree {
				s.trace.BetaBailouts++
			}
			st, err := s.finishBase(inst, cur, colors)
			seq(&stats, st)
			if err != nil {
				return nil, stats, err
			}
			break
		}
		s.trace.OuterSweeps++

		local.SetSpanLabel(s.run, "defective")
		def, err := defective.Color(curSys, beta, s.initColors(pick(inst.items, cur)), s.baseX, s.run)
		if err != nil {
			return nil, stats, err
		}
		seq(&stats, def.Stats)
		s.trace.DefectiveCalls++

		classes := make([][]int32, def.Palette) // positions in cur, ascending
		for i, class := range def.Colors {
			classes[class] = append(classes[class], int32(i))
		}
		colored := 0
		for class, members := range classes {
			if len(members) == 0 {
				continue
			}
			// One round: members learn colors already used next to them,
			// prune their lists, and mark themselves active if more than
			// half their (sweep-start) degree remains available.
			stats.Rounds++
			var marked []int32
			var lists [][]int
			for _, i := range members {
				k := cur[i]
				if pruned := s.prunedList(inst, colors, k); 2*len(pruned) > curSys.Degree(int(i)) {
					marked = append(marked, k)
					lists = append(lists, pruned)
				}
			}
			if len(marked) == 0 {
				continue
			}
			sub := inst.sub(marked, lists)
			if s.params.Strict {
				// Lemma 4.2's slack guarantee for the class instance:
				// |Le| > β · deg_sub(e).
				for i, l := range lists {
					if d := sub.sys.Degree(i); len(l) <= beta*d {
						return nil, stats, fmt.Errorf("core: class %d item %d has |L|=%d ≤ β·deg'=%d·%d (Lemma 4.2 violated)",
							class, sub.items[i], len(l), beta, d)
					}
				}
			}
			subColors, st, err := s.solveSlackS(sub, depth)
			seq(&stats, st)
			if err != nil {
				return nil, stats, err
			}
			s.trace.ClassInstances++
			for i, k := range marked {
				if subColors[i] >= 0 {
					colors[k] = subColors[i]
					colored++
				}
			}
		}
		if colored == 0 {
			// Practical-mode stall: every marked edge was deferred. The
			// global invariant keeps the remainder base-solvable.
			st, err := s.finishBase(inst, cur, colors)
			seq(&stats, st)
			if err != nil {
				return nil, stats, err
			}
			break
		}
		uncolored := cur[:0]
		for _, k := range cur {
			if colors[k] < 0 {
				uncolored = append(uncolored, k)
			}
		}
		cur = uncolored
	}
	return colors, stats, nil
}

// finishBase colors the members cur with the base solver after pruning
// their lists against the colors already assigned in this scope.
func (s *Solver) finishBase(inst instance, cur []int32, colors []int) (local.Stats, error) {
	var stats local.Stats
	lists := make([][]int, len(cur))
	for i, k := range cur {
		lists[i] = s.prunedList(inst, colors, k)
	}
	stats.Rounds++ // learning the neighbors' colors for the pruning
	local.SetSpanLabel(s.run, "base")
	got, st, err := s.solveBase(inst.sub(cur, lists))
	seq(&stats, st)
	if err != nil {
		return stats, fmt.Errorf("core: base solve of remainder: %w", err)
	}
	for i, k := range cur {
		colors[k] = got[i]
	}
	return stats, nil
}

// prunedList returns member k's list minus the colors of its already-colored
// neighbors in the instance (information one announcement round away): the
// list itself when no neighbor is colored, a fresh slice otherwise.
//
//distec:hotpath
func (s *Solver) prunedList(inst instance, colors []int, k int32) []int {
	if len(s.seen) < inst.c {
		s.seen = make([]uint64, inst.c)
	}
	s.stamp++
	colored := false
	for _, side := range inst.sys.Key[k] {
		for _, f := range inst.sys.Side(side) {
			if f != k && colors[f] >= 0 {
				s.seen[colors[f]] = s.stamp
				colored = true
			}
		}
	}
	if !colored {
		return inst.lists[k]
	}
	out := make([]int, 0, len(inst.lists[k]))
	for _, c := range inst.lists[k] {
		if s.seen[c] != s.stamp {
			out = append(out, c)
		}
	}
	return out
}

// initColors returns the global initial coloring of the given top-level
// items.
func (s *Solver) initColors(items []int32) []int {
	init := make([]int, len(items))
	for i, e := range items {
		init[i] = s.baseCols[e]
	}
	return init
}

// solveBase runs the base solver on inst, seeded with the global initial
// coloring; it returns a color per member.
func (s *Solver) solveBase(inst instance) ([]int, local.Stats, error) {
	return listcolor.SolveOnTopology(inst.sys.Topology(), s.initColors(inst.items), s.baseX, inst.lists, s.run)
}

// solveSlackS implements Lemma 4.5, T(Δ̄, S, C): chain color space
// reductions (Lemma 4.3) until the palette is at most StopPalette, then
// solve all surviving sub-instances — they live on disjoint palettes and
// disjoint derived sides, so one combined base solve covers them all
// simultaneously. It returns a color per member, −1 for deferred ones.
func (s *Solver) solveSlackS(inst instance, depth int) ([]int, local.Stats, error) {
	var stats local.Stats
	out := make([]int, len(inst.items))
	at := make([]int32, len(inst.items)) // member of inst behind each member of cur
	for k := range out {
		out[k], at[k] = -1, int32(k)
	}
	cur := inst
	lo := make([]int, len(inst.items))
	size := inst.c

	for size > s.params.StopPalette && len(cur.items) > 0 {
		p := max(2, min(s.params.P(cur.sys.MaxDegree(), inst.c), size))
		res, err := s.assignSubspaces(assignInput{inst: cur, lo: lo, size: size, p: p, depth: depth})
		seq(&stats, res.stats)
		if err != nil {
			return nil, stats, err
		}
		s.trace.ChainLevels++

		// Refine: sides, intervals and lists follow the chosen subspace j,
		// side s becoming side (s, j).
		var keep []int32
		var keys [][2]int64
		var lists [][]int
		var los []int
		for k, j := range res.assign {
			if j < 0 {
				if s.params.Strict {
					return nil, stats, fmt.Errorf("core: item %d unassigned in strict mode (bug)", cur.items[k])
				}
				continue // deferred to the enclosing sweep
			}
			partLo := lo[k] + j*res.pt.PartSize
			l := cur.lists[k]
			key := cur.sys.Key[k]
			keep = append(keep, int32(k))
			keys = append(keys, [2]int64{int64(key[0])<<32 | int64(j), int64(key[1])<<32 | int64(j)})
			lists = append(lists, l[sort.SearchInts(l, partLo):sort.SearchInts(l, partLo+res.pt.PartSize)])
			los = append(los, partLo)
		}
		cur = instance{items: pick(cur.items, keep), sys: local.NewPairs(keys), lists: lists, c: inst.c}
		at, lo, size = pick(at, keep), los, res.pt.PartSize
	}

	// Drop items whose slack budget ran out (never in strict mode), with
	// the degrees of each pass's start, then run the combined base solve.
	for {
		var keep []int32
		for k, l := range cur.lists {
			if deg := cur.sys.Degree(k); len(l) <= deg {
				if s.params.Strict {
					return nil, stats, fmt.Errorf("core: chain end item %d has |L|=%d ≤ deg=%d (slack budget exhausted in strict mode)",
						cur.items[k], len(l), deg)
				}
				s.trace.Deferred++
				continue
			}
			keep = append(keep, int32(k))
		}
		if len(keep) == len(cur.items) {
			break
		}
		cur, at = cur.sub(keep, pick(cur.lists, keep)), pick(at, keep)
	}
	if len(cur.items) == 0 {
		return out, stats, nil
	}
	local.SetSpanLabel(s.run, "base")
	got, st, err := s.solveBase(cur)
	seq(&stats, st)
	if err != nil {
		return nil, stats, fmt.Errorf("core: chain-end base solve: %w", err)
	}
	for i, k := range at {
		out[k] = got[i]
	}
	return out, stats, nil
}
