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
// A sender decodes its color into base-q digits once per step and broadcasts
// them packed, ⌈log₂ q⌉ bits each; receivers unpack them with shifts and
// evaluate every polynomial from the step's table of powers.
//
// The package also provides the standard one-class-per-round reduction to any
// target ≥ Δ+1 colors (used to 3-color the max-degree-2 conflict paths/cycles
// of the paper's defective coloring, §4.1). It announces a color only when it
// is new: an entity sleeps until its class's round, and entities without
// ports finish alone, so its quiet rounds cost the engines nothing.
package linial

import (
	"fmt"
	"math"
	"math/bits"

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

// reduction is one run's shared state — the step tables, the schedule,
// the outputs and the error sink — and the slab its entities live in.
// Every entity points to it.
type reduction struct {
	steps  []stepTable // one per plan step
	k      int         // colors after the plan
	target int         // −1: no class elimination
	total  int         // rounds in the schedule
	out    []int
	errs   *local.ErrorSink
	slab   []reducer
}

// stepTable is what one Linial step needs beyond (Q, D): the digit width
// of the packed broadcast and the powers of every point a free point can
// be — with at most Δ·D points blocked, the first Δ·D+1 of GF(q).
type stepTable struct {
	q, w  int // field size and digits per polynomial (D+1)
	width int // bits per packed digit, ⌈log₂ q⌉
	pows  []int
}

// newReduction prepares a reduction of n entities of maximum degree
// maxDeg along plan, with class elimination down to target colors when
// target ≥ 0. It rejects a step whose packed digits would not fit 63 bits.
func newReduction(n int, plan []Step, k, target, maxDeg int, out []int, errs *local.ErrorSink) (*reduction, error) {
	rn := &reduction{k: k, target: target, total: len(plan), out: out, errs: errs, slab: make([]reducer, n)}
	if target >= 0 && k > target {
		rn.total += k - target
	}
	for _, s := range plan {
		w := s.D + 1
		width := bits.Len(uint(s.Q - 1))
		if w*width > 63 {
			return nil, fmt.Errorf("linial: step q=%d d=%d packs %d digits of %d bits, more than 63", s.Q, s.D, w, width)
		}
		rn.steps = append(rn.steps, stepTable{q: s.Q, w: w, width: width, pows: gf.Powers(nil, s.Q, min(s.Q, maxDeg*s.D+1), w)})
	}
	return rn, nil
}

// entity is the run's Factory body: it sets up v's reducer in the slab.
func (rn *reduction) entity(v local.View, color int) local.Protocol {
	rd := &rn.slab[v.Index]
	*rd = reducer{rn: rn, index: int32(v.Index), degree: int32(v.Degree), color: color}
	return rd
}

// pack returns color's base-q digits, least significant first, width bits
// each: the polynomial a Linial step broadcasts.
func (st *stepTable) pack(color int) int {
	var buf [63]int
	v := 0
	for i, d := range gf.Digits(buf[:0], color, st.q, st.w) {
		v |= d << (i * st.width)
	}
	return v
}

// reducer is the per-entity protocol (a local.Broadcaster and a
// local.Sleeper): len(plan) Linial rounds, in which it broadcasts its
// color's packed digits, followed by (K − target) class-elimination rounds
// when target ≥ 0. Class elimination announces each color once: every
// entity its post-Linial color in the first class round, a recolored one
// its new color in the round after. Between these an entity sleeps until
// its class round, then until the last round; a color below target is
// final, so the colors below target its neighbors announced are all it
// keeps (heard). An entity with no ports finishes its schedule in round 1
// and sleeps until the last round.
type reducer struct {
	rn       *reduction
	index    int32
	degree   int32
	color    int
	heard    uint64 // colors < min(target, 64) that neighbors announced
	announce int32  // the round this entity announces its recolor in
	dead     bool   // a protocol error occurred; idle out the schedule
}

func (rd *reducer) Send(r int) []local.Message {
	return local.SendPerPort(rd, r, int(rd.degree))
}

func (rd *reducer) Receive(r int, inbox []local.Message) bool {
	return local.ReceivePerPort(rd, r, inbox)
}

func (rd *reducer) Broadcast(r int) (int, bool) {
	rn := rd.rn
	switch {
	case rd.dead || rd.degree == 0:
		return 0, false
	case r <= len(rn.steps):
		return rn.steps[r-1].pack(rd.color), true
	case r == len(rn.steps)+1 || int32(r) == rd.announce:
		return rd.color, true
	}
	return 0, false
}

//distec:hotpath
func (rd *reducer) ReceiveBroadcast(r int, in local.Broadcasts) bool {
	rn := rd.rn
	switch {
	case rd.dead:
		// Keep pace with the lockstep schedule but stop computing.
	case rd.degree == 0:
		if r == 1 {
			rd.finishAlone()
		}
	case r <= len(rn.steps):
		rd.linialStep(&rn.steps[r-1], in)
	default:
		rd.eliminate(r, in)
	}
	if r >= rn.total {
		rn.out[rd.index] = rd.color
		return true
	}
	return false
}

// ReceiveNone implements local.SparseReceiver: ReceiveBroadcast with no
// port sending.
func (rd *reducer) ReceiveNone(r int) bool { return rd.ReceiveBroadcast(r, local.Broadcasts{}) }

// NextWake implements local.Sleeper: awake through the Linial steps and
// into the first class round, then asleep until the entity's class round
// (when its color is not below target yet) or the round it announces a
// recolor in, and otherwise until the last round.
func (rd *reducer) NextWake(r int) int {
	rn := rd.rn
	switch {
	case rd.dead || rd.degree == 0:
		return rn.total
	case r <= len(rn.steps) || int32(r+1) == rd.announce:
		return r + 1
	case rd.color >= rn.target:
		return len(rn.steps) + rn.k - rd.color
	}
	return rn.total
}

// fail records a protocol error; the entity idles out the schedule with
// color 0.
func (rd *reducer) fail(err error) {
	rd.rn.errs.Set(err)
	rd.dead = true
	rd.color = 0
}

// finishAlone runs the whole schedule of an entity without ports: with no
// neighbor, a Linial step's free point is 0, where the color's polynomial
// takes its lowest digit, and class elimination sends a color ≥ target to
// the smallest color, 0.
func (rd *reducer) finishAlone() {
	rn := rd.rn
	for _, st := range rn.steps {
		rd.color %= st.q
	}
	if rn.target >= 0 && rd.color >= rn.target {
		rd.color = 0
	}
}

// linialStep applies one cover-free reduction: find a point of GF(q) where
// this entity's color-polynomial differs from every neighbor's. Neighbors
// broadcast their digits packed, so they are unpacked with shifts; all
// polynomials go into a stack buffer while degree·(d+1) fits in it.
//
//distec:hotpath
func (rd *reducer) linialStep(st *stepTable, in local.Broadcasts) {
	var buf [512]int
	own := st.pack(rd.color)
	// polys[:w] is this entity's polynomial, then one w-block per neighbor.
	polys := st.unpack(buf[:0], own)
	for p := 0; p < in.Len(); p++ {
		v, sent := in.At(p)
		if !sent {
			continue
		}
		if v == own {
			rd.fail(fmt.Errorf("linial: entity %d and a neighbor share color %d (input coloring not proper)", rd.index, rd.color))
			return
		}
		polys = st.unpack(polys, v)
	}
	a, fa := freePoint(polys, st)
	if a < 0 {
		rd.fail(fmt.Errorf("linial: entity %d found no conflict-free point (q=%d d=%d deg=%d)", rd.index, st.q, st.w-1, rd.degree))
		return
	}
	rd.color = a*st.q + fa
}

// unpack appends the w digits packed in v to dst.
func (st *stepTable) unpack(dst []int, v int) []int {
	mask := 1<<st.width - 1
	for i := 0; i < st.w; i++ {
		dst = append(dst, v>>(i*st.width)&mask)
	}
	return dst
}

// freePoint returns the smallest tabled point a of GF(q) at which the first
// width-w polynomial of polys differs from every other one, and its value
// there; a = −1 when there is none.
func freePoint(polys []int, st *stepTable) (a, fa int) {
	w := st.w
	for o := 0; o < len(st.pows); o += w {
		pows := st.pows[o : o+w]
		fa := gf.Eval(polys[:w], pows, st.q)
		free := true
		for p := w; p < len(polys); p += w {
			if gf.Eval(polys[p:p+w], pows, st.q) == fa {
				free = false
				break
			}
		}
		if free {
			return o / w, fa
		}
	}
	return -1, 0
}

// eliminate is a class-elimination round: it records the colors below
// target the neighbors announced, and in the entity's class round picks
// the smallest color none of them holds. That color is at most the
// degree, so 64 bits of heard colors suffice below degree 64.
//
//distec:hotpath
func (rd *reducer) eliminate(r int, in local.Broadcasts) {
	rn := rd.rn
	for p := 0; p < in.Len(); p++ {
		if c, sent := in.At(p); sent && c < rn.target {
			rd.heard |= 1 << c
		}
	}
	if rd.color != rn.k-(r-len(rn.steps)) {
		return
	}
	c := bits.TrailingZeros64(^rd.heard)
	if c >= rn.target {
		rd.fail(fmt.Errorf("linial: entity %d cannot recolor below %d with degree %d", rd.index, rn.target, rd.degree))
		return
	}
	rd.color = c
	rd.announce = int32(r + 1)
}

// Reduce runs Linial's reduction on topology t, starting from the proper
// coloring initial (values < X), and returns the resulting coloring with
// fewer than Colors(X, t.MaxDeg) colors.
func Reduce(t *local.Topology, initial []int, x int, run local.Engine) ([]int, local.Stats, error) {
	return reduce(t, initial, x, -1, run)
}

// ReduceToTarget runs Linial's reduction and then eliminates color classes
// one round at a time until only target colors remain. Requires
// target ≥ t.MaxDeg+1 (otherwise a greedy recoloring step can get stuck)
// and t.MaxDeg < 64 (an entity keeps its neighbors' final colors in 64
// bits).
func ReduceToTarget(t *local.Topology, initial []int, x, target int, run local.Engine) ([]int, local.Stats, error) {
	if target < t.MaxDeg+1 {
		return nil, local.Stats{}, fmt.Errorf("linial: target %d < maxDeg+1 = %d", target, t.MaxDeg+1)
	}
	if t.MaxDeg >= 64 {
		return nil, local.Stats{}, fmt.Errorf("linial: class elimination needs max degree < 64, got %d", t.MaxDeg)
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
	rn, err := newReduction(n, plan, k, target, t.MaxDeg, out, errs)
	if err != nil {
		return nil, local.Stats{}, err
	}
	factory := func(v local.View) local.Protocol { return rn.entity(v, initial[v.Index]) }
	stats, err := run.Run(t, factory, nil)
	if err != nil {
		return nil, stats, err
	}
	if err := errs.Err(); err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}
