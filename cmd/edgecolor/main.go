// Command edgecolor colors the edges of a graph with a chosen distributed
// algorithm and reports the LOCAL-model cost.
//
// Usage:
//
//	edgecolor -gen regular -n 1024 -d 16 -alg bko
//	edgecolor -in graph.txt -alg pr01
//	edgecolor -gen regular -n 30000 -d 8 -alg pr01 -engine sharded -shards 4
//	edgecolor -gen complete -n 64 -alg vizing        # Δ+1 colors, guaranteed
//	graphgen -family gnp -n 500 -p 0.02 | edgecolor -alg randomized
//
// The input format is the plain edge list of cmd/graphgen ("n m" header,
// one "u v" line per edge). With -dump the per-edge colors are printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/trace"
)

func main() {
	var (
		inFile   = flag.String("in", "", "read graph from file (edge list; \"-\" or empty with piped stdin)")
		gen      = flag.String("gen", "", "generate a graph: regular|gnp|geometric|powerlaw|complete|cycle|bipartite|tree")
		n        = flag.Int("n", 256, "node count for -gen")
		d        = flag.Int("d", 8, "degree parameter for -gen")
		p        = flag.Float64("p", 0.05, "edge probability / radius for -gen gnp|geometric")
		seed     = flag.Uint64("seed", 1, "generator / randomized-algorithm seed")
		alg      = flag.String("alg", "bko", "algorithm: bko|bko-theory|pr01|greedy-classes|randomized|vizing")
		engine   = flag.String("engine", "sequential", "engine: sequential|sharded")
		shards   = flag.Int("shards", 0, "shard count for -engine sharded (default: one per core)")
		palette  = flag.Int("palette", 0, "palette size (default 2Δ−1; Δ+1 for -alg vizing)")
		dump     = flag.Bool("dump", false, "print per-edge colors")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the coloring run to this file (view with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file after the run")
		traceOut = flag.String("trace", "", "write a round-resolved execution trace to this file (Chrome trace-event JSON; load in ui.perfetto.dev or chrome://tracing)")
		traceSum = flag.Bool("trace-summary", false, "print the solve summary (rounds, quiescent rounds, messages, per-phase breakdown)")
	)
	flag.Parse()

	if err := validateFlags(*engine, *shards, *alg); err != nil {
		fmt.Fprintln(os.Stderr, "edgecolor:", err)
		flag.Usage()
		os.Exit(2)
	}
	g, err := loadGraph(*inFile, *gen, *n, *d, *p, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgecolor:", err)
		os.Exit(1)
	}
	opts := distec.Options{
		Algorithm: distec.Algorithm(*alg),
		Engine:    distec.Engine(*engine),
		Shards:    *shards,
		Palette:   *palette,
		Seed:      *seed,
	}
	var tr *trace.Trace
	if *traceOut != "" || *traceSum {
		tr = trace.New()
		opts.Trace = tr
	}
	// Profile the coloring run alone: graph loading and output are not what
	// -cpuprofile users are tuning.
	stopProfile, err := startCPUProfile(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgecolor:", err)
		os.Exit(1)
	}
	res, err := distec.ColorEdges(g, opts)
	stopProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgecolor:", err)
		os.Exit(1)
	}
	if err := writeHeapProfile(*memProf); err != nil {
		fmt.Fprintln(os.Stderr, "edgecolor:", err)
		os.Exit(1)
	}
	if err := writeTrace(*traceOut, tr); err != nil {
		fmt.Fprintln(os.Stderr, "edgecolor:", err)
		os.Exit(1)
	}
	if err := distec.Verify(g, res.Colors); err != nil {
		fmt.Fprintln(os.Stderr, "edgecolor: OUTPUT INVALID:", err)
		os.Exit(1)
	}
	fmt.Printf("graph: n=%d m=%d Δ=%d Δ̄=%d\n", g.N(), g.M(), g.MaxDegree(), g.MaxEdgeDegree())
	fmt.Printf("algorithm: %s (engine %s)\n", *alg, *engine)
	fmt.Printf("palette: %d, colors used: %d\n", res.Palette, res.ColorsUsed)
	fmt.Printf("LOCAL rounds: %d, messages: %d\n", res.Rounds, res.Messages)
	fmt.Println("verification: proper edge coloring ✓")
	if res.Diagnostics != nil {
		dgn := res.Diagnostics
		fmt.Printf("bko: sweeps=%d defective=%d classes=%d chain-levels=%d phases=%d deferred=%d sweep-degrees=%v\n",
			dgn.OuterSweeps, dgn.DefectiveCalls, dgn.ClassInstances, dgn.ChainLevels, dgn.PhaseInstances, dgn.Deferred, dgn.SweepDegrees)
	}
	if *traceSum {
		tr.Summary().Format(os.Stdout)
	}
	if *dump {
		for e := 0; e < g.M(); e++ {
			u, v := g.Endpoints(graph.EdgeID(e))
			fmt.Printf("%d %d %d\n", u, v, res.Colors[e])
		}
	}
}

// validateFlags rejects flag values the run could only fail on later, so
// mistakes surface as usage errors before any work starts. The cases spell
// out the distec constants; when the library gains an engine or algorithm,
// extend the matching case list (and the flag help text) here.
func validateFlags(engine string, shards int, alg string) error {
	switch distec.Engine(engine) {
	case distec.Sequential, distec.Sharded:
	default:
		return fmt.Errorf("unknown -engine %q (want sequential or sharded)", engine)
	}
	if shards < 0 {
		return fmt.Errorf("-shards must be ≥ 0, got %d", shards)
	}
	switch distec.Algorithm(alg) {
	case distec.BKO, distec.BKOTheory, distec.PR01, distec.GreedyClasses, distec.Randomized, distec.Vizing:
	default:
		return fmt.Errorf("unknown -alg %q (want bko, bko-theory, pr01, greedy-classes, randomized, or vizing)", alg)
	}
	return nil
}

func loadGraph(inFile, gen string, n, d int, p float64, seed uint64) (*distec.Graph, error) {
	if gen != "" {
		switch gen {
		case "regular":
			return distec.RandomRegular(n, d, seed), nil
		case "gnp":
			return distec.GNP(n, p, seed), nil
		case "geometric":
			return distec.RandomGeometric(n, p, seed), nil
		case "powerlaw":
			return distec.PowerLaw(n, 2.5, d, seed), nil
		case "complete":
			return distec.Complete(n), nil
		case "cycle":
			return distec.Cycle(n), nil
		case "bipartite":
			return distec.CompleteBipartite(n/2, n/2), nil
		case "tree":
			return distec.RandomTree(n, seed), nil
		}
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
	if inFile == "" || inFile == "-" {
		return graph.Read(os.Stdin)
	}
	f, err := os.Open(inFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}

// startCPUProfile begins CPU profiling into path ("" is a no-op) and
// returns the function that stops it and closes the file.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeTrace exports the run's trace as Chrome trace-event JSON to path
// ("" is a no-op). The document embeds the solve summary under the
// "summary" key (viewers ignore unknown top-level keys).
func writeTrace(path string, tr *trace.Trace) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeHeapProfile dumps the heap to path ("" is a no-op), forcing a GC
// first so the profile reflects live objects, not garbage.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
