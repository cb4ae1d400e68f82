package distec

import (
	"io"
	"testing"

	"github.com/distec/distec/internal/bench"
	"github.com/distec/distec/internal/core"
	"github.com/distec/distec/internal/defective"
	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/pseudoforest"
	"github.com/distec/distec/internal/randomized"
	"github.com/distec/distec/internal/trace"
)

// The benchmarks below regenerate each experiment E1–E14 (indexed by the
// runners' doc comments in internal/bench/experiments.go) at smoke scale
// (so `go test -bench=.` stays tractable); cmd/benchtables produces
// the full tables recorded in EXPERIMENTS.md. Each benchmark reports the
// experiment's key figure of merit as a custom metric alongside ns/op.

func benchExperiment(b *testing.B, runner func(bench.Scale) (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := runner(bench.Smoke)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1_RoundsVsDelta(b *testing.B)     { benchExperiment(b, bench.E1RoundsVsDelta) }
func BenchmarkE2_RoundsVsN(b *testing.B)         { benchExperiment(b, bench.E2RoundsVsN) }
func BenchmarkE3_SlackReduction(b *testing.B)    { benchExperiment(b, bench.E3SlackReduction) }
func BenchmarkE4_DefectiveColoring(b *testing.B) { benchExperiment(b, bench.E4Defective) }
func BenchmarkE5_LevelExistence(b *testing.B)    { benchExperiment(b, bench.E5Levels) }
func BenchmarkE6_SpaceReduction(b *testing.B)    { benchExperiment(b, bench.E6SpaceReduction) }
func BenchmarkE7_ChainedReduction(b *testing.B)  { benchExperiment(b, bench.E7Chain) }
func BenchmarkE8_Fig5Partition(b *testing.B)     { benchExperiment(b, bench.E8Fig5) }
func BenchmarkE9_TheoryPreset(b *testing.B)      { benchExperiment(b, bench.E9TheoryPreset) }
func BenchmarkE11_VirtualSplit(b *testing.B)     { benchExperiment(b, bench.E11VirtualSplit) }
func BenchmarkE12_AlgorithmMatrix(b *testing.B)  { benchExperiment(b, bench.E12AlgorithmMatrix) }
func BenchmarkE13_AblationPhases(b *testing.B)   { benchExperiment(b, bench.E13AblationPhases) }
func BenchmarkE14_Engines(b *testing.B)          { benchExperiment(b, bench.E14Engines) }

// BenchmarkE10_Walkthrough covers E10 (Figures 1–4): the walkthrough's
// machinery — one full defective sweep plus remainder — on a small instance.
func BenchmarkE10_Walkthrough(b *testing.B) {
	g := graph.GNP(18, 0.33, 5)
	in := listcolor.NewUniform(g, 2*g.MaxDegree()-1)
	for i := 0; i < b.N; i++ {
		res, err := core.SolveGraph(in, core.Practical(), local.Sequential)
		if err != nil {
			b.Fatal(err)
		}
		if res.Colors[0] < 0 {
			b.Fatal("uncolored")
		}
	}
}

// --- Micro-benchmarks of the substrates (throughput accounting). ---

func BenchmarkGraphEdgeConflictBuild(b *testing.B) {
	g := graph.RandomRegular(512, 16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp := local.EdgeConflict(g)
		if tp.N() != g.M() {
			b.Fatal("bad topology")
		}
	}
}

func BenchmarkLinialReduce(b *testing.B) {
	g := graph.RandomRegular(512, 8, 2)
	tp := local.EdgeConflict(g)
	init := make([]int, tp.N())
	for i := range init {
		init[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := linial.Reduce(tp, init, tp.N(), local.Sequential); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDefectiveColoring(b *testing.B) {
	g := graph.RandomRegular(512, 16, 3)
	for i := 0; i < b.N; i++ {
		if _, err := defective.ColorGraph(g, nil, 2, local.Sequential); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverBKO times one Practical solve on either side of the
// preamble's empty-plan branch: sparse (Δ̄ = 14) runs Linial's reduction
// first, dense (Δ̄ = 126) has an empty Linial plan, so the solver's own
// bookkeeping is most of its time.
func BenchmarkSolverBKO(b *testing.B) {
	for _, bc := range []struct {
		name      string
		d         int
		emptyPlan bool
	}{{"sparse", 8, false}, {"dense", 64, true}} {
		b.Run(bc.name, func(b *testing.B) {
			g := graph.RandomRegular(256, bc.d, 4)
			if empty := len(linial.Plan(g.M(), g.MaxEdgeDegree())) == 0; empty != bc.emptyPlan {
				b.Fatalf("Linial plan empty: %v, want %v", empty, bc.emptyPlan)
			}
			in := listcolor.NewUniform(g, 2*g.MaxDegree()-1)
			b.ReportAllocs()
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := core.SolveGraph(in, core.Practical(), local.Sequential)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "LOCALrounds")
		})
	}
}

func BenchmarkSolverPR01(b *testing.B) {
	g := graph.RandomRegular(256, 8, 4)
	in := listcolor.NewUniform(g, 2*g.MaxDegree()-1)
	var rounds int
	for i := 0; i < b.N; i++ {
		_, stats, err := pseudoforest.Solve(g, nil, in.Lists, local.Sequential)
		if err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "LOCALrounds")
}

func BenchmarkSolverRandomized(b *testing.B) {
	g := graph.RandomRegular(256, 8, 4)
	in := listcolor.NewUniform(g, 2*g.MaxDegree()-1)
	var rounds int
	for i := 0; i < b.N; i++ {
		_, stats, err := randomized.Solve(g, nil, in.Lists, uint64(i), local.Sequential)
		if err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "LOCALrounds")
}

// extendFixture builds the shared ExtendColoring workload: a proper
// coloring of RandomRegular(2000, 24) with 1 in 16 edges left to complete
// and full-palette lists.
func extendFixture(b *testing.B) (g *graph.Graph, partial []int, lists [][]int, palette int) {
	b.Helper()
	g = graph.RandomRegular(2000, 24, 7)
	full, err := ColorEdges(g, Options{Algorithm: PR01})
	if err != nil {
		b.Fatal(err)
	}
	palette = full.Palette
	partial = make([]int, g.M())
	lists = make([][]int, g.M())
	all := make([]int, palette)
	for i := range all {
		all[i] = i
	}
	for e := 0; e < g.M(); e++ {
		lists[e] = all
		partial[e] = full.Colors[e]
		if e%16 == 0 {
			partial[e] = -1
		}
	}
	return g, partial, lists, palette
}

// BenchmarkExtendColoring measures completing an almost-finished partial
// coloring — the serving hot path ([Bar15] §1): most of the work is pruning
// the fixed neighbors' colors out of each uncolored edge's list.
func BenchmarkExtendColoring(b *testing.B) {
	g, partial, lists, palette := extendFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ExtendColoring(g, partial, lists, palette, Options{Algorithm: PR01})
		if err != nil {
			b.Fatal(err)
		}
		if res.Colors[0] < 0 {
			b.Fatal("uncolored")
		}
	}
}

// BenchmarkExtendColoringPrune isolates ExtendColoring's list-pruning stage
// (building the pruned instance, without solving it) — the part the
// color-indexed scratch slice speeds up over the previous per-edge maps.
func BenchmarkExtendColoringPrune(b *testing.B) {
	g, partial, lists, palette := extendFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := extendInstance(g, partial, lists, palette)
		if err != nil {
			b.Fatal(err)
		}
		if in.C != palette {
			b.Fatal("bad instance")
		}
	}
}

func BenchmarkEngineSequential(b *testing.B) { benchEngine(b, local.Sequential) }
func BenchmarkEngineSharded(b *testing.B)    { benchEngine(b, local.Sharded(0)) }

func benchEngine(b *testing.B, run local.Engine) {
	b.Helper()
	g := graph.RandomRegular(256, 8, 5)
	tp := local.EdgeConflict(g)
	init := make([]int, tp.N())
	for i := range init {
		init[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := linial.Reduce(tp, init, tp.N(), run); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFlood is the engine-comparison protocol: every entity broadcasts the
// largest index it has seen on all ports for a fixed number of rounds. It is
// deterministic, message-dense (one message per directed link per round),
// and algorithm-free, so the benchmark isolates pure engine overhead.
type benchFlood struct {
	v      local.View
	rounds int
	best   int
	out    []local.Message
}

func (f *benchFlood) Send(r int) []local.Message {
	for p := range f.out {
		f.out[p] = f.best
	}
	return f.out
}

func (f *benchFlood) Receive(r int, inbox []local.Message) bool {
	for _, m := range inbox {
		if m != nil {
			if x := m.(int); x > f.best {
				f.best = x
			}
		}
	}
	return r >= f.rounds
}

// broadcastFlood is benchFlood on the engines' broadcast path (a
// local.Broadcaster): the same flood, stored once per entity per round
// instead of written once per port.
type broadcastFlood struct {
	v      local.View
	rounds int
	best   int
}

func (f *broadcastFlood) Send(r int) []local.Message { return local.SendPerPort(f, r, f.v.Degree) }

func (f *broadcastFlood) Receive(r int, inbox []local.Message) bool {
	return local.ReceivePerPort(f, r, inbox)
}

func (f *broadcastFlood) Broadcast(r int) (int, bool) { return f.best, true }

func (f *broadcastFlood) ReceiveBroadcast(r int, in local.Broadcasts) bool {
	for p := 0; p < in.Len(); p++ {
		if x, sent := in.At(p); sent && x > f.best {
			f.best = x
		}
	}
	return r >= f.rounds
}

// BenchmarkEngines compares the two engines on ≥10⁵-edge workloads
// (results are recorded in BENCH_engines.json). Ring and regular flood on
// the edge-conflict topology (one entity per edge, so entity-count scaling
// dominates); complete-bipartite floods on the node topology, where the
// per-round message volume of ~2m dominates. The sharded engine pays two
// barriers across its shards per round and one batched slice append per
// message (per-port) or per cross-shard arrival (broadcast), and runs its
// shards in parallel. Each workload runs benchFlood on the per-port path
// (rows named after the engine) and broadcastFlood on the broadcast path
// (rows prefixed "broadcast-").
func BenchmarkEngines(b *testing.B) {
	const rounds = 8
	workloads := []struct {
		name  string
		build func() *local.Topology
	}{
		// 10⁵ edge entities of conflict degree 2.
		{"ring-100k", func() *local.Topology { return local.EdgeConflict(graph.Cycle(100_000)) }},
		// 10⁵ edge entities of conflict degree 14.
		{"regular-100k", func() *local.Topology { return local.EdgeConflict(graph.RandomRegular(25_000, 8, 6)) }},
		// K(320,320): 102 400 edges; ~2·10⁵ messages per round on the node topology.
		{"bipartite-102k", func() *local.Topology { return local.FromGraph(graph.CompleteBipartite(320, 320)) }},
	}
	paths := []struct {
		prefix  string
		factory local.Factory
	}{
		{"", func(v local.View) local.Protocol {
			return &benchFlood{v: v, rounds: rounds, best: v.Index, out: make([]local.Message, v.Degree)}
		}},
		{"broadcast-", func(v local.View) local.Protocol {
			return &broadcastFlood{v: v, rounds: rounds, best: v.Index}
		}},
	}
	for _, w := range workloads {
		tp := w.build()
		for _, path := range paths {
			factory := path.factory
			for _, eng := range []local.Engine{local.Sequential, local.Sharded(0)} {
				b.Run(w.name+"/"+path.prefix+eng.Name(), func(b *testing.B) {
					var stats local.Stats
					for i := 0; i < b.N; i++ {
						var err error
						if stats, err = eng.Run(tp, factory, nil); err != nil {
							b.Fatal(err)
						}
						if stats.Rounds != rounds {
							b.Fatalf("rounds = %d, want %d", stats.Rounds, rounds)
						}
					}
					b.ReportMetric(float64(stats.Messages)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mmsg/s")
				})
			}
		}
	}
}

// BenchmarkEnginesTraced is the ring-100k flood with a live tracer: the
// traced-ON cost — one timestamp pair, one RoundEvent append, and a
// handful of counter reads per round, amortized over 10⁵ entities.
// Compare against BenchmarkEngines/ring-100k/sequential (nil tracer);
// BENCH_trace.json records both sides of the gate.
func BenchmarkEnginesTraced(b *testing.B) {
	const rounds = 8
	tp := local.EdgeConflict(graph.Cycle(100_000))
	factory := func(v local.View) local.Protocol {
		return &benchFlood{v: v, rounds: rounds, best: v.Index, out: make([]local.Message, v.Degree)}
	}
	var stats local.Stats
	for i := 0; i < b.N; i++ {
		tr := trace.New()
		var err error
		if stats, err = local.Sequential.Run(tp, factory, &local.Options{Trace: tr}); err != nil {
			b.Fatal(err)
		}
		if stats.Rounds != rounds {
			b.Fatalf("rounds = %d, want %d", stats.Rounds, rounds)
		}
		if got := len(tr.Spans()[0].Rounds); got != rounds {
			b.Fatalf("traced %d rounds, want %d", got, rounds)
		}
	}
	b.ReportMetric(float64(stats.Messages)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mmsg/s")
}

// Guard: writing all experiment tables to io.Discard at smoke scale is the
// full-harness benchmark (what CI tracks for regressions).
func BenchmarkAllTablesSmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.WriteAll(io.Discard, bench.Smoke); err != nil {
			b.Fatal(err)
		}
	}
}
