// Package linial implements Linial's deterministic color reduction in the
// LOCAL model [Lin87], the substrate the paper invokes as "compute an
// O(Δ̄²)-edge coloring in O(log* n) rounds".
//
// Given any proper coloring of a conflict system with X colors and maximum
// conflict degree Δ, the algorithm reaches O(Δ²) colors in O(log* X) rounds.
// Each round applies the cover-free-family step: the current color c < q^(d+1)
// is read as a degree-d polynomial over GF(q) (its base-q digits); because two
// distinct polynomials agree on at most d of the q points and q > Δ·d, every
// entity can pick a point a where its polynomial differs from all neighbors'
// polynomials, and adopt the pair (a, f(a)) — one of q² colors — as its new
// color. The schedule of (q, d) pairs is a pure function of (X, Δ), so all
// entities run in lockstep without coordination.
//
// The package also provides the standard one-class-per-round reduction to any
// target ≥ Δ+1 colors (used to 3-color the max-degree-2 conflict paths/cycles
// of the paper's defective coloring, §4.1).
package linial

import (
	"fmt"
	"math"
	"slices"

	"github.com/distec/distec/internal/gf"
	"github.com/distec/distec/internal/local"
)

// Step is one Linial reduction round: colors < Q^(D+1) become colors < Q².
type Step struct {
	Q int // field size (prime, > maxDeg·D)
	D int // polynomial degree
}

// ceilRoot returns the smallest r ≥ 1 with r^k ≥ m.
func ceilRoot(m, k int) int {
	if m <= 1 {
		return 1
	}
	r := int(math.Pow(float64(m), 1/float64(k)))
	for r > 1 && pow64(r-1, k) >= m {
		r--
	}
	for pow64(r, k) < m {
		r++
	}
	return r
}

// pow64 computes r^k, saturating at math.MaxInt64 to avoid overflow.
func pow64(r, k int) int {
	acc := 1
	for i := 0; i < k; i++ {
		if acc > math.MaxInt64/max(r, 1) {
			return math.MaxInt64
		}
		acc *= r
	}
	return acc
}

// bestStep returns the step minimizing the resulting color count q² for the
// current color count m and conflict degree maxDeg, or ok=false when no step
// makes progress (m is already at the fixpoint).
func bestStep(m, maxDeg int) (Step, bool) {
	bestQ := -1
	var best Step
	for d := 1; d <= 62; d++ {
		lo := maxDeg*d + 1
		root := ceilRoot(m, d+1)
		q := gf.NextPrime(max(lo, root))
		if bestQ < 0 || q < bestQ {
			bestQ = q
			best = Step{Q: q, D: d}
		}
		// Larger d only helps while the root term dominates; once lo ≥ root
		// the q value can only grow with d.
		if lo >= root {
			break
		}
	}
	if bestQ*bestQ >= m {
		return Step{}, false
	}
	return best, true
}

// Plan returns the deterministic (q, d) schedule that reduces X colors to the
// fixpoint on conflict systems of maximum degree maxDeg. The schedule length
// is O(log* X).
func Plan(X, maxDeg int) []Step {
	if maxDeg <= 0 {
		return nil
	}
	var plan []Step
	m := X
	for {
		s, ok := bestStep(m, maxDeg)
		if !ok {
			return plan
		}
		plan = append(plan, s)
		m = s.Q * s.Q
	}
}

// Colors returns the number of colors after running Plan(X, maxDeg):
// O(maxDeg²), concretely at most NextPrime(maxDeg+1)² ≤ 4(maxDeg+1)².
func Colors(X, maxDeg int) int {
	if maxDeg <= 0 {
		return min(X, 1)
	}
	plan := Plan(X, maxDeg)
	if len(plan) == 0 {
		return X
	}
	last := plan[len(plan)-1]
	return last.Q * last.Q
}

// reducer is the per-entity protocol: len(plan) Linial rounds followed by
// (K − target) class-elimination rounds when target ≥ 0. Every round it
// broadcasts its current color (a local.Broadcaster).
type reducer struct {
	v      local.View
	color  int
	plan   []Step
	k      int // colors after the plan
	target int // −1: no class reduction
	out    []int
	errs   *local.ErrorSink
	dead   bool // a protocol error occurred; idle out the schedule
}

func (rd *reducer) Send(r int) []local.Message { return local.SendPerPort(rd, r, rd.v.Degree) }

func (rd *reducer) Receive(r int, inbox []local.Message) bool {
	return local.ReceivePerPort(rd, r, inbox)
}

func (rd *reducer) Broadcast(r int) (int, bool) { return rd.color, true }

//distec:hotpath
func (rd *reducer) ReceiveBroadcast(r int, in local.Broadcasts) bool {
	if rd.dead {
		// Keep pace with the lockstep schedule but stop computing.
	} else if r <= len(rd.plan) {
		rd.linialStep(rd.plan[r-1], in)
	} else if rd.target >= 0 {
		c := rd.k - (r - len(rd.plan))
		if rd.color == c {
			rd.recolorBelow(rd.target, in)
		}
	}
	total := len(rd.plan)
	if rd.target >= 0 && rd.k > rd.target {
		total += rd.k - rd.target
	}
	if r >= total {
		rd.out[rd.v.Index] = rd.color
		return true
	}
	return false
}

// fail records a protocol error; the entity idles out the schedule with
// color 0.
func (rd *reducer) fail(err error) {
	rd.errs.Set(err)
	rd.dead = true
	rd.color = 0
}

// linialStep applies one cover-free reduction: find a point of GF(q) where
// this entity's color-polynomial differs from every neighbor's. The digits
// of all polynomials go into a stack buffer while degree·(d+1) fits in it.
//
//distec:hotpath
func (rd *reducer) linialStep(s Step, in local.Broadcasts) {
	q, w := s.Q, s.D+1
	var buf [512]int
	// polys[:w] is this entity's polynomial, then one w-block per neighbor.
	polys := gf.Digits(buf[:0], rd.color, q, w)
	for p := 0; p < in.Len(); p++ {
		c, sent := in.At(p)
		if !sent {
			continue
		}
		if c == rd.color {
			rd.fail(fmt.Errorf("linial: entity %d and a neighbor share color %d (input coloring not proper)", rd.v.Index, c))
			return
		}
		polys = gf.Digits(polys, c, q, w)
	}
	a, fa := freePoint(polys, q, w)
	if a < 0 {
		rd.fail(fmt.Errorf("linial: entity %d found no conflict-free point (q=%d d=%d deg=%d)", rd.v.Index, q, s.D, rd.v.Degree))
		return
	}
	rd.color = a*q + fa
}

// freePoint returns the smallest a in GF(q) at which the first width-w
// polynomial of polys differs from every other one, and its value there;
// a = −1 when there is none.
func freePoint(polys []int, q, w int) (a, fa int) {
	for a := 0; a < q; a++ {
		fa := gf.Eval(polys[:w], a, q)
		free := true
		for o := w; o < len(polys); o += w {
			if gf.Eval(polys[o:o+w], a, q) == fa {
				free = false
				break
			}
		}
		if free {
			return a, fa
		}
	}
	return -1, 0
}

// recolorBelow picks the smallest color < target not used by any neighbor.
// That color is at most the degree, so only colors ≤ degree are tracked,
// in a stack array while they fit.
//
//distec:hotpath
func (rd *reducer) recolorBelow(target int, in local.Broadcasts) {
	var buf [64]bool
	n := min(target, in.Len()+1)
	var used []bool
	if n <= len(buf) {
		used = buf[:n]
	} else {
		used = make([]bool, n)
	}
	for p := 0; p < in.Len(); p++ {
		if c, sent := in.At(p); sent && c < n {
			used[c] = true
		}
	}
	c := slices.Index(used, false)
	if c < 0 {
		rd.errs.Set(fmt.Errorf("linial: entity %d cannot recolor below %d with degree %d", rd.v.Index, target, rd.v.Degree))
		return
	}
	rd.color = c
}

// Reduce runs Linial's reduction on topology t, starting from the proper
// coloring initial (values < X), and returns the resulting coloring with
// fewer than Colors(X, t.MaxDeg) colors.
func Reduce(t *local.Topology, initial []int, x int, run local.Engine) ([]int, local.Stats, error) {
	return reduce(t, initial, x, -1, run)
}

// ReduceToTarget runs Linial's reduction and then eliminates color classes
// one round at a time until only target colors remain. Requires
// target ≥ t.MaxDeg+1 (otherwise a greedy recoloring step can get stuck).
func ReduceToTarget(t *local.Topology, initial []int, x, target int, run local.Engine) ([]int, local.Stats, error) {
	if target < t.MaxDeg+1 {
		return nil, local.Stats{}, fmt.Errorf("linial: target %d < maxDeg+1 = %d", target, t.MaxDeg+1)
	}
	return reduce(t, initial, x, target, run)
}

func reduce(t *local.Topology, initial []int, x, target int, run local.Engine) ([]int, local.Stats, error) {
	n := t.N()
	if len(initial) != n {
		return nil, local.Stats{}, fmt.Errorf("linial: %d initial colors for %d entities", len(initial), n)
	}
	for i, c := range initial {
		if c < 0 || c >= x {
			return nil, local.Stats{}, fmt.Errorf("linial: initial color %d of entity %d outside [0,%d)", c, i, x)
		}
	}
	// Input validation (not communication): the reduction is only defined on
	// proper colorings, so reject improper input up front.
	for i := range t.Ports {
		for _, j := range t.Ports[i] {
			if initial[i] == initial[int(j)] {
				return nil, local.Stats{}, fmt.Errorf("linial: input coloring improper: entities %d and %d share color %d", i, j, initial[i])
			}
		}
	}
	if run == nil {
		run = local.Sequential
	}
	out := make([]int, n)
	if t.MaxDeg == 0 {
		// No conflicts anywhere: color 0 everywhere, zero rounds.
		return out, local.Stats{}, nil
	}
	plan := Plan(x, t.MaxDeg)
	k := x
	if len(plan) > 0 {
		last := plan[len(plan)-1]
		k = last.Q * last.Q
	}
	if len(plan) == 0 && (target < 0 || k <= target) {
		// Already at (or below) the requested color count: nothing to do.
		copy(out, initial)
		return out, local.Stats{}, nil
	}
	errs := &local.ErrorSink{}
	factory := func(v local.View) local.Protocol {
		return &reducer{
			v:      v,
			color:  initial[v.Index],
			plan:   plan,
			k:      k,
			target: target,
			out:    out,
			errs:   errs,
		}
	}
	stats, err := run.Run(t, factory, nil)
	if err != nil {
		return nil, stats, err
	}
	if err := errs.Err(); err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}
