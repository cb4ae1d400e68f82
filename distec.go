// Package distec is a deterministic distributed edge coloring library: a
// complete implementation of "Distributed Edge Coloring in Time
// Quasi-Polylogarithmic in Delta" (Balliu, Kuhn, Olivetti — PODC 2020) in
// the LOCAL model, together with every substrate the paper builds on
// (Linial's coloring, Cole–Vishkin reductions, defective edge colorings) and
// the classical baselines it compares against.
//
// The unit of work is a Graph; algorithms color its edges so that edges
// sharing an endpoint receive different colors. All algorithms are
// synchronous message-passing programs: they can run on a deterministic
// sequential engine or on a sharded engine that runs partitions of the
// network in parallel and batches messages between them — with
// bit-identical results — and they report the number of LOCAL rounds
// consumed. Every algorithm but BKO ("bko") is an honest LOCAL program.
// BKO's base solver plans Linial with each sub-topology's measured maximum
// degree, which no node knows locally, so its colors on one component can
// change with a disjoint one.
//
// Quickstart:
//
//	g := distec.RandomRegular(1024, 16, 42)
//	res, err := distec.ColorEdges(g, distec.Options{})
//	// res.Colors[e] ∈ [0, 2Δ−1), res.Rounds = LOCAL rounds
//
// The headline algorithm (AlgorithmBKO) solves the harder
// (deg(e)+1)-list edge coloring problem: see ColorEdgesList.
package distec

import (
	"fmt"

	"github.com/distec/distec/internal/core"
	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/pseudoforest"
	"github.com/distec/distec/internal/randomized"
	"github.com/distec/distec/internal/trace"
	"github.com/distec/distec/internal/verify"
	"github.com/distec/distec/internal/vertexcolor"
	"github.com/distec/distec/internal/vizing"
)

// Graph is an undirected simple graph; see NewGraph and the generators.
type Graph = graph.Graph

// EdgeID identifies an edge of a Graph in insertion order.
type EdgeID = graph.EdgeID

// NewGraph returns an empty graph on n nodes. Add edges with AddEdge.
func NewGraph(n int) *Graph { return graph.New(n) }

// Algorithm selects the coloring algorithm.
type Algorithm string

const (
	// BKO is the paper's algorithm (Theorem 4.1) with the practical
	// parameter preset: quasi-polylogarithmic-in-Δ round growth, solves
	// (deg(e)+1)-list instances. This is the default.
	BKO Algorithm = "bko"
	// BKOTheory is the paper's algorithm with the paper's own constants
	// (β = log⁴ Δ̄, p = √Δ̄). At feasible Δ̄ these provably reduce to the
	// base case — see EXPERIMENTS.md E9 — but every lemma precondition is
	// asserted at runtime.
	BKOTheory Algorithm = "bko-theory"
	// PR01 is the Panconesi–Rizzi-style O(Δ + log* n) pseudoforest
	// baseline; also solves list instances.
	PR01 Algorithm = "pr01"
	// GreedyClasses is the trivial O(Δ̄² + log* n) baseline: Linial classes
	// colored greedily one class per round.
	GreedyClasses Algorithm = "greedy-classes"
	// Randomized is the classic O(log n) randomized trials baseline
	// [Lub86]; deterministic for a fixed Options.Seed.
	Randomized Algorithm = "randomized"
	// Vizing is the sequential fan/alternating-path algorithm behind
	// Vizing's theorem: the only solver accepting palettes below the slack
	// bound Δ̄+1, down to the guaranteed optimum-plus-one of Δ+1 colors.
	// For ColorEdges, Palette 0 selects Δ+1 (not 2Δ−1), and any explicit
	// Palette ≥ Δ+1 is accepted. On list and extension instances it reduces
	// to the sequential greedy, which the (deg(e)+1) slack invariant makes
	// complete and list-respecting. It is not a LOCAL protocol: the engine
	// choice is accepted but irrelevant (results are identical on all
	// engines by construction), Result.Rounds reports the number of
	// augmentations, and Result.Messages the color assignments written. See
	// internal/vizing.
	Vizing Algorithm = "vizing"
)

// Engine selects how protocols execute.
type Engine string

const (
	// Sequential runs entities in a deterministic loop (default; fastest
	// for small instances).
	Sequential Engine = "sequential"
	// Sharded partitions entities into shards (one per core by default;
	// see Options.Shards) whose per-round work runs in parallel, with
	// batched message handoff between them. Results are bit-identical to
	// Sequential; it is the engine for large instances on many cores.
	Sharded Engine = "sharded"
)

// Options configures a coloring run. The zero value selects BKO on the
// sequential engine with palette 2Δ−1.
type Options struct {
	// Algorithm selects the solver (default BKO).
	Algorithm Algorithm
	// Engine selects the execution engine (default Sequential).
	Engine Engine
	// Shards is the shard count for the Sharded engine (default: one per
	// core). Ignored by the sequential engine.
	Shards int
	// Palette overrides the palette size for ColorEdges (default 2Δ−1, or
	// Δ+1 for the Vizing algorithm). Must be at least Δ̄+1 to keep the
	// instance (deg(e)+1)-solvable — except under Vizing, whose fan/path
	// augmentation only needs Palette ≥ Δ+1.
	Palette int
	// Seed feeds the Randomized algorithm's simulated coin flips.
	Seed uint64
	// Trace, when non-nil, receives round-resolved execution telemetry
	// for the run: one span per protocol execution with per-round events,
	// exportable as Chrome trace-event JSON (Trace.WriteChrome) or rolled
	// up with Trace.Summary. Traced requests bypass a Pool's result cache
	// — a cache hit executes no rounds, so there would be nothing to
	// trace. Nil (the default) costs nothing.
	Trace *trace.Trace
}

// Result reports a coloring and its LOCAL-model cost.
type Result struct {
	// Colors maps EdgeID to the chosen color, −1 for inactive edges.
	Colors []int
	// Rounds is the number of synchronous LOCAL rounds consumed (edge-
	// entity rounds; multiply by 2 and add O(1) for plain node rounds).
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int64
	// Palette is the palette size the instance was solved over.
	Palette int
	// ColorsUsed is the number of distinct colors in the output.
	ColorsUsed int
	// Diagnostics holds BKO instrumentation (nil for other algorithms).
	Diagnostics *Diagnostics
}

// Diagnostics exposes the BKO solver's instrumentation counters; each
// field's comment names the part of the paper it counts.
type Diagnostics struct {
	OuterSweeps    int   // Lemma 4.2 sweeps
	DefectiveCalls int   // §4.1 defective colorings computed
	ClassInstances int   // slack-β sub-instances solved
	ChainLevels    int   // Lemma 4.3 applications
	PhaseInstances int   // E(1) phase sub-colorings
	Deferred       int   // practical-mode deferrals
	SweepDegrees   []int // max uncolored degree per sweep (halving trace)
	Eq2Worst       float64
}

func (o Options) engine() (local.Engine, error) {
	switch o.Engine {
	case "", Sequential:
		return local.Sequential, nil
	case Sharded:
		return local.Sharded(o.Shards), nil
	default:
		return nil, fmt.Errorf("distec: unknown engine %q", o.Engine)
	}
}

// ColorEdges computes a proper edge coloring of g with palette
// {0, …, Palette−1} (default 2Δ−1; Δ+1 for Algorithm Vizing). All edges
// participate.
func ColorEdges(g *Graph, opts Options) (*Result, error) {
	in, err := uniformInstanceFor(g, opts)
	if err != nil {
		return nil, err
	}
	return colorInstance(g, in, opts)
}

// ColorEdgesList solves the (deg(e)+1)-list edge coloring problem: each
// edge e must be colored from lists[e] (strictly ascending values in
// [0, palette)), and |lists[e]| must exceed deg(e). This is the paper's
// primary problem statement.
func ColorEdgesList(g *Graph, lists [][]int, palette int, opts Options) (*Result, error) {
	in, err := listInstance(g, lists, palette)
	if err != nil {
		return nil, err
	}
	return colorInstance(g, in, opts)
}

// ExtendColoring completes a partial edge coloring — the paper's motivating
// use case for list coloring ([Bar15], §1). Edges with partial[e] ≥ 0 keep
// their colors; every other edge is colored from lists[e] minus the colors
// of its fixed neighbors. The pruned list must remain strictly larger than
// the edge's uncolored conflict degree, which holds in particular whenever
// |lists[e]| > deg(e) and the partial coloring is proper.
func ExtendColoring(g *Graph, partial []int, lists [][]int, palette int, opts Options) (*Result, error) {
	run, err := opts.engine()
	if err != nil {
		return nil, err
	}
	return extendOn(g, partial, lists, palette, opts, run)
}

// extendOn is ExtendColoring on an explicit engine — the seam shared by the
// one-shot API and the dynamic-coloring repair path, whose pool-backed
// sessions hand in a job-bound engine over the shared worker lanes.
func extendOn(g *Graph, partial []int, lists [][]int, palette int, opts Options, run local.Engine) (*Result, error) {
	in, err := extendInstance(g, partial, lists, palette)
	if err != nil {
		return nil, err
	}
	res, err := colorOn(g, in, opts, run)
	if err != nil {
		return nil, err
	}
	mergePartial(res, partial)
	return res, nil
}

// effectivePaletteFor resolves the ColorEdges palette default per
// algorithm: 0 selects 2Δ−1, except for Vizing, whose natural regime is
// Δ+1 (at least 1 either way). Shared by uniformInstanceFor and the pool
// result cache, whose keys must not distinguish a defaulted palette from
// the same value named explicitly.
func effectivePaletteFor(g *Graph, alg Algorithm, palette int) int {
	if palette != 0 {
		return palette
	}
	var c int
	if alg == Vizing {
		c = g.MaxDegree() + 1
	} else {
		c = 2*g.MaxDegree() - 1
	}
	if c < 1 {
		c = 1
	}
	return c
}

// uniformInstanceFor builds the full-palette instance of ColorEdges with
// the algorithm's feasibility bound: the LOCAL solvers need the slack bound
// palette > Δ̄, while Vizing's augmentation needs only palette ≥ Δ+1
// (Vizing's theorem) — such instances violate the slack invariant by
// design, so they skip the slack validation the solvable case requires.
func uniformInstanceFor(g *Graph, opts Options) (*listcolor.Instance, error) {
	c := effectivePaletteFor(g, opts.Algorithm, opts.Palette)
	if opts.Algorithm == Vizing {
		if delta := g.MaxDegree(); c <= delta {
			return nil, fmt.Errorf("distec: palette %d below Δ+1=%d (vizing guarantees Δ+1)", c, delta+1)
		}
		return listcolor.NewUniform(g, c), nil
	}
	if dbar := g.MaxEdgeDegree(); c <= dbar {
		return nil, fmt.Errorf("distec: palette %d not greater than Δ̄=%d", c, dbar)
	}
	return listcolor.NewUniform(g, c), nil
}

// listInstance builds and validates the instance of ColorEdgesList.
func listInstance(g *Graph, lists [][]int, palette int) (*listcolor.Instance, error) {
	if len(lists) != g.M() {
		return nil, fmt.Errorf("distec: %d lists for %d edges", len(lists), g.M())
	}
	active := make([]bool, g.M())
	for e := range active {
		active[e] = true
	}
	in := &listcolor.Instance{G: g, Active: active, Lists: lists, C: palette}
	if err := in.Validate(1); err != nil {
		return nil, err
	}
	return in, nil
}

// extendInstance builds and validates the instance of ExtendColoring: the
// uncolored edges, with the fixed neighbors' colors pruned from their lists.
func extendInstance(g *Graph, partial []int, lists [][]int, palette int) (*listcolor.Instance, error) {
	if len(partial) != g.M() || len(lists) != g.M() {
		return nil, fmt.Errorf("distec: partial/lists sized %d/%d for %d edges", len(partial), len(lists), g.M())
	}
	// The fixed part must itself be proper.
	for e := 0; e < g.M(); e++ {
		if partial[e] < 0 {
			continue
		}
		var conflict error
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if conflict == nil && partial[f] == partial[e] {
				conflict = fmt.Errorf("distec: partial coloring improper at edges %d,%d (color %d)", e, f, partial[e])
			}
		})
		if conflict != nil {
			return nil, conflict
		}
	}
	active := make([]bool, g.M())
	pruned := make([][]int, g.M())
	// used is a color-indexed scratch, stamped with e+1 while pruning edge
	// e: one O(palette) allocation for the whole call, where a per-edge set
	// would cost O(deg) map operations per uncolored edge. Colors outside
	// [0, palette) cannot collide with (validated) list entries, so they
	// simply stay unstamped.
	var used []int
	if palette > 0 {
		used = make([]int, palette)
	}
	for e := 0; e < g.M(); e++ {
		if partial[e] >= 0 {
			continue
		}
		active[e] = true
		stamp := e + 1
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if c := partial[f]; c >= 0 && c < len(used) {
				used[c] = stamp
			}
		})
		hit := 0
		for _, c := range lists[e] {
			if c >= 0 && c < len(used) && used[c] == stamp {
				hit++
			}
		}
		if hit == 0 {
			// Nothing to prune: share the caller's list (read-only by
			// contract) instead of copying it.
			pruned[e] = lists[e]
			continue
		}
		out := make([]int, 0, len(lists[e])-hit)
		for _, c := range lists[e] {
			if c >= 0 && c < len(used) && used[c] == stamp {
				continue
			}
			out = append(out, c)
		}
		pruned[e] = out
	}
	in := &listcolor.Instance{G: g, Active: active, Lists: pruned, C: palette}
	if err := in.Validate(1); err != nil {
		return nil, err
	}
	return in, nil
}

// mergePartial copies the fixed colors of a partial coloring back into an
// extension result and recounts the distinct colors.
func mergePartial(res *Result, partial []int) {
	for e, c := range partial {
		if c >= 0 {
			res.Colors[e] = c
		}
	}
	res.ColorsUsed = verify.CountColors(res.Colors)
}

func colorInstance(g *Graph, in *listcolor.Instance, opts Options) (*Result, error) {
	run, err := opts.engine()
	if err != nil {
		return nil, err
	}
	return colorOn(g, in, opts, run)
}

// colorOn solves the instance with the selected algorithm on an explicit
// engine — the seam shared by the one-shot API (engine from Options) and
// Pool (a job-bound engine over the shared worker lanes).
func colorOn(g *Graph, in *listcolor.Instance, opts Options, run local.Engine) (*Result, error) {
	// The tracer rides on the engine value, not on per-run Options: the
	// algorithm packages call run.Run with their own Options, and the
	// wrapper injects the tracer into every one of them. With a nil
	// tracer Traced returns run unchanged.
	if opts.Trace != nil {
		opts.Trace.SetLabel(string(opts.Algorithm))
	}
	run = local.Traced(run, opts.Trace)
	var (
		colors []int
		stats  local.Stats
		diag   *Diagnostics
		err    error
	)
	switch opts.Algorithm {
	case "", BKO, BKOTheory:
		params := core.Practical()
		if opts.Algorithm == BKOTheory {
			params = core.Theory(1, 1)
		}
		var res *core.Result
		res, err = core.SolveGraph(in, params, run)
		if err == nil {
			colors, stats = res.Colors, res.Stats
			diag = &Diagnostics{
				OuterSweeps:    res.Trace.OuterSweeps,
				DefectiveCalls: res.Trace.DefectiveCalls,
				ClassInstances: res.Trace.ClassInstances,
				ChainLevels:    res.Trace.ChainLevels,
				PhaseInstances: res.Trace.PhaseInstances,
				Deferred:       res.Trace.Deferred,
				SweepDegrees:   res.Trace.SweepDegrees,
				Eq2Worst:       res.Trace.Eq2Worst,
			}
		}
	case PR01:
		colors, stats, err = pseudoforest.Solve(g, in.Active, in.Lists, run)
	case GreedyClasses:
		colors, stats, err = listcolor.SolveBase(in, nil, 0, run)
	case Randomized:
		colors, stats, err = randomized.Solve(g, in.Active, in.Lists, opts.Seed, run)
	case Vizing:
		// Sequential by nature: no protocol execution, identical on every
		// engine. The one engine service it does use is cancellation:
		// engines exposing a liveness check (the pool's job engine) get it
		// polled between edges, so deadlines still abort a large run.
		var interrupt func() error
		if ip, ok := run.(interface{ Interrupt() error }); ok {
			interrupt = ip.Interrupt
		}
		// No rounds to trace, but the wall time still earns a span so a
		// traced Vizing run shows up in summaries and exports.
		span := opts.Trace.StartSpan("vizing", g.M())
		colors, stats, err = vizing.Solve(g, in.Active, in.Lists, in.C, interrupt)
		span.End(err)
	default:
		return nil, fmt.Errorf("distec: unknown algorithm %q", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Colors:      colors,
		Rounds:      stats.Rounds,
		Messages:    stats.Messages,
		Palette:     in.C,
		ColorsUsed:  verify.CountColors(colors),
		Diagnostics: diag,
	}, nil
}

// ColorVertices computes a (Δ+1)-vertex coloring of g in O(Δ² + log* n)
// rounds ([Lin87, SV93]). The paper frames (2Δ−1)-edge coloring as the
// line-graph special case of this more general problem (§1); the vertex
// variant is provided as classical context — its best known Δ-dependence is
// still polynomial, which is exactly the gap the paper closes for edges.
func ColorVertices(g *Graph, opts Options) (*Result, error) {
	run, err := opts.engine()
	if err != nil {
		return nil, err
	}
	colors, stats, err := vertexcolor.Solve(g, run)
	if err != nil {
		return nil, err
	}
	return &Result{
		Colors:     colors,
		Rounds:     stats.Rounds,
		Messages:   stats.Messages,
		Palette:    g.MaxDegree() + 1,
		ColorsUsed: verify.CountColors(colors),
	}, nil
}

// VerifyVertices checks that colors is a proper vertex coloring of g.
func VerifyVertices(g *Graph, colors []int) error {
	return vertexcolor.Verify(g, colors)
}

// Verify checks that colors is a proper edge coloring of g (every edge
// colored, conflicting edges distinct).
func Verify(g *Graph, colors []int) error {
	return verify.EdgeColoring(g, nil, colors)
}

// VerifyList additionally checks that every edge's color belongs to its list.
func VerifyList(g *Graph, lists [][]int, colors []int) error {
	if err := verify.EdgeColoring(g, nil, colors); err != nil {
		return err
	}
	return verify.ListRespecting(g, nil, lists, colors)
}
