package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/bench"
	"github.com/distec/distec/internal/core"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/verify"
)

// staticConfig sizes a static workload: one-shot BKO solves of
// RandomRegular(n, d, seed), each followed by a slice of two short probes
// that give the cached and update metrics every workload reports (see
// LAYERS.md): cache hits on the solve graph, and update batches on a Vizing
// session over RandomRegular(sessN, sessD). Each update slice builds its own
// session and drops it before the next solve, so no probe state is live
// during a solve and none is in set-up.
type staticConfig struct {
	n, d         int
	setups       int // set-up repetitions; setup_s is their median
	solves       int // timed ColorEdges solves, and probe slices
	traced       int // traced core.SolveGraph solves (trace mode)
	cached       int // cached-probe requests per slice
	sessN, sessD int // update-probe session graph
	batches      int // update-probe batches per slice
	batchSize    int
}

// staticState is what one set-up builds: the solve graph and a one-lane
// pool whose cache holds the warm-up solve.
type staticState struct {
	g    *distec.Graph
	pool *distec.Pool
	warm *distec.Result
}

func newStaticState(ctx context.Context, c staticConfig, seed uint64) (*staticState, error) {
	st := &staticState{g: distec.RandomRegular(c.n, c.d, seed)}
	// One lane, and every execution whole on it: the warm-up solve then
	// runs the same sequential engine as the timed one-shot solves.
	st.pool = distec.NewPool(distec.PoolOptions{Workers: 1, SmallJob: 1 << 30})
	var err error
	if st.warm, err = st.pool.ColorEdges(ctx, st.g, distec.Options{}); err != nil {
		st.pool.Close()
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return st, nil
}

// checkBKO verifies one BKO result on g: a proper coloring inside the
// 2Δ−1 palette.
func checkBKO(g *distec.Graph, res *distec.Result) error {
	if want := 2*g.MaxDegree() - 1; res.Palette != want {
		return fmt.Errorf("palette %d, want 2Δ−1 = %d", res.Palette, want)
	}
	for e, col := range res.Colors {
		if col >= res.Palette {
			return fmt.Errorf("edge %d color %d outside palette %d", e, col, res.Palette)
		}
	}
	return verify.EdgeColoring(g, nil, res.Colors)
}

// tally counts attempted and failed operations; every failure is printed
// to standard error.
type tally struct{ attempted, failed int }

func (t *tally) add(err error) { t.settle(1, err) }

// settle records n operations whose verification err decides: all n pass
// or all n fail.
func (t *tally) settle(n int, err error) {
	t.attempted += n
	if err != nil {
		t.failed += n
		fmt.Fprintln(os.Stderr, "benchladder: check failed:", err)
	}
}

func runStatic(ctx context.Context, c staticConfig, seed uint64, traced bool) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	probe := hostProbe()
	// Input generation, outside setup_s: each update slice's churn stream.
	churns := make([][][]distec.Update, c.solves)
	for i := range churns {
		g := distec.RandomRegular(c.sessN, c.sessD, subSeed(seed, i))
		churns[i] = updateBatches(bench.ChurnCapped(g, c.batches*c.batchSize, c.sessD, subSeed(seed+1, i)), c.batchSize)
	}

	var st *staticState
	setup := make([]float64, c.setups)
	for r := range setup {
		if st != nil {
			st.pool.Close()
		}
		t0 := time.Now()
		s, err := newStaticState(ctx, c, seed)
		setup[r] = time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		st = s
	}
	defer st.pool.Close()
	var ok tally
	ok.add(checkBKO(st.g, st.warm))

	// Timed one-shot solves; each result is verified after its clock stops.
	// After each solve comes one probe slice, so probe samples spread over
	// the whole run instead of one short window.
	solveS := make([]float64, c.solves)
	var (
		last     *distec.Result
		cachedMs []float64
		up       updateStats
		sliceP99 []float64
		verifyS  float64
	)
	for i := range solveS {
		// Each solve and each slice starts on a collected heap, so no step
		// pays for the garbage of the one before it, and the previous
		// slice's session is gone before a solve starts.
		runtime.GC()
		t0 := time.Now()
		res, err := distec.ColorEdges(st.g, distec.Options{})
		solveS[i] = time.Since(t0).Seconds()
		if err != nil {
			ok.add(fmt.Errorf("solve %d: %w", i, err))
		} else {
			ok.add(checkBKO(st.g, res))
			last = res
		}
		runtime.GC()
		cachedMs = append(cachedMs, cachedProbe(ctx, st, c.cached, &ok)...)
		n0 := len(up.latMs)
		v, err := updateProbe(ctx, st.pool, c, subSeed(seed, i), churns[i], &up, &ok)
		if err != nil {
			return nil, err
		}
		verifyS += v
		sliceP99 = append(sliceP99, tailQuantile(slices.Clone(up.latMs[n0:]), 0.99))
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	if last == nil {
		return nil, fmt.Errorf("every solve failed")
	}
	if !slices.Equal(last.Colors, st.warm.Colors) {
		ok.add(fmt.Errorf("one-shot and pool solves disagree"))
	}

	solveMs := make([]float64, len(solveS))
	total := 0.0
	for i, s := range solveS {
		solveMs[i] = s * 1000
		total += s
	}
	out.e2e["setup_s"] = quantile(setup, 0.5)
	out.e2e["solve_s"] = quantile(solveS, 0.5)
	out.e2e["ops_per_s"] = float64(len(solveS)) / total
	out.e2e["color_p50_ms"] = quantile(solveMs, 0.5)
	out.e2e["color_p90_ms"] = tailQuantile(solveMs, 0.9)
	out.e2e["cached_p50_ms"] = quantile(cachedMs, 0.5)
	out.e2e["update_p50_ms"] = quantile(up.latMs, 0.5)
	// The median of the slices' p99: a host stall during one slice fills
	// that slice's tail, but does not set the run's figure.
	out.e2e["update_p99_ms"] = quantile(sliceP99, 0.5)
	out.e2e["local_rounds"] = float64(last.Rounds)
	out.e2e["colors_used"] = float64(last.ColorsUsed)

	if traced {
		if err := tracedStatic(st, c, last, out); err != nil {
			return nil, err
		}
		out.layer["trace.overhead_pct"] = 100 * (out.layer["core.solve_s"] - out.e2e["solve_s"]) / out.e2e["solve_s"]
		out.layer["dynamic.greedy"] = float64(up.greedy)
		out.layer["dynamic.repaired"] = float64(up.repaired)
		out.layer["dynamic.augmented"] = float64(up.augmented)
		// The probe's session has no journal: apply time is all self time.
		apply := 0.0
		for _, l := range up.latMs {
			apply += l / 1000
		}
		out.layer["dynamic.apply_s"] = apply
		out.layer["dynamic.self_s"] = apply
		out.layer["dynamic.verify_s"] = verifyS
		// Layers the static workloads do not reach: no small jobs, no
		// journal, no rehydration.
		for _, k := range []string{"core.job_self_ms", "core.job_alloc_mb", "local.job_engine_ms",
			"local.job_engine_runs", "persist.append_s", "persist.appends", "persist.snapshot_s",
			"persist.snapshot_bytes", "persist.compact_s", "persist.compactions", "persist.open_s",
			"persist.replayed_records", "distec.restore_s", "distec.replay_s", "persist.rehydrate_ms"} {
			out.layer[k] = 0
		}
		ps := st.pool.Stats()
		out.layer["distec.cache_hits"] = float64(ps.CacheHits)
		out.layer["distec.cache_misses"] = float64(ps.CacheMisses)
		out.layer["distec.cache_hit_ratio"] = float64(ps.CacheHits) / float64(ps.CacheHits+ps.CacheMisses)
		out.layer["serve.jobs"] = float64(ps.Submitted)
		out.layer["serve.failed"] = float64(ps.Failed)
		out.layer["serve.sequential_runs"] = float64(ps.SequentialRuns)
		out.layer["serve.rounds"] = float64(ps.Rounds)
		out.layer["serve.messages"] = float64(ps.Messages)
	}
	out.layer["host.probe_ms"] = probe
	out.attempted, out.failed = ok.attempted, ok.failed
	return out, nil
}

// updateProbe is one update slice: it builds a Vizing session over
// RandomRegular(sessN, sessD, seed) on pool, outside every clock, applies
// the churn batches to it into up, and closes it. The session is verified
// once, at the end: if that fails, every batch of the slice counts as
// failed. It returns the verify time.
func updateProbe(ctx context.Context, pool *distec.Pool, c staticConfig, seed uint64, churn [][]distec.Update, up *updateStats, ok *tally) (float64, error) {
	d, err := distec.NewDynamic(distec.RandomRegular(c.sessN, c.sessD, seed),
		distec.DynamicOptions{Options: distec.Options{Algorithm: distec.Vizing}, Pool: pool})
	if err != nil {
		return 0, fmt.Errorf("update-probe session: %w", err)
	}
	// Collect the build's garbage before the first timed batch, so that no
	// slice's batches run beside a collection the build left in progress.
	runtime.GC()
	good := 0
	for j, b := range churn {
		if err := up.apply(ctx, d, b, nil, nil); err != nil {
			ok.add(fmt.Errorf("update batch %d: %w", j, err))
			continue
		}
		good++
	}
	t0 := time.Now()
	err = d.Verify()
	verifyS := time.Since(t0).Seconds()
	ok.settle(good, err)
	if err := d.Close(); err != nil {
		return 0, fmt.Errorf("update-probe session: %w", err)
	}
	return verifyS, nil
}

// cachedProbe re-requests the warm-up solve from the pool n times; every
// answer must come from the cache and equal the verified warm-up coloring.
func cachedProbe(ctx context.Context, st *staticState, n int, ok *tally) []float64 {
	lat := make([]float64, n)
	hits := st.pool.Stats().CacheHits
	for i := range lat {
		t0 := time.Now()
		res, err := st.pool.ColorEdges(ctx, st.g, distec.Options{})
		lat[i] = ms(time.Since(t0))
		if err != nil {
			ok.add(fmt.Errorf("cached request %d: %w", i, err))
			continue
		}
		if !slices.Equal(res.Colors, st.warm.Colors) {
			ok.add(fmt.Errorf("cached request %d: coloring differs from the verified one", i))
			continue
		}
		ok.add(nil)
	}
	if got := st.pool.Stats().CacheHits - hits; got != uint64(n) {
		ok.add(fmt.Errorf("cached probe: %d hits for %d requests", got, n))
	}
	return lat
}

// tracedStatic solves the graph c.traced times through core.SolveGraph —
// the call ColorEdges makes — on a timing engine, and reports the split of
// the median solve: Linial, defective, chain and base engine spans plus
// the core bookkeeping between them (core.self_s). The engine spans and
// core.self_s add up to core.solve_s by construction.
func tracedStatic(st *staticState, c staticConfig, untraced *distec.Result, out *outcome) error {
	tr := newTracer()
	palette := 2*st.g.MaxDegree() - 1
	walls := make([]float64, c.traced)
	roots := make([]int, c.traced)
	allocMB := make([]float64, c.traced)
	gcs := make([]float64, c.traced)
	var res *core.Result
	for i := range walls {
		in := listcolor.NewUniform(st.g, palette)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		roots[i] = tr.begin("solve", -1)
		r, err := core.SolveGraph(in, core.Practical(), &timingEngine{tr: tr, parent: roots[i]})
		walls[i] = tr.end(roots[i]).Seconds()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("traced solve %d: %w", i, err)
		}
		if !slices.Equal(r.Colors, untraced.Colors) {
			return fmt.Errorf("traced solve %d: coloring differs from the untraced solve", i)
		}
		allocMB[i] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		gcs[i] = float64(m1.NumGC - m0.NumGC)
		res = r
	}
	mid := medianIndex(walls)
	root := roots[mid]
	ph := tr.phases(root)
	var eng phaseTotals
	for _, p := range ph {
		eng.dur += p.dur
		eng.runs += p.runs
		eng.rounds += p.rounds
		eng.messages += p.messages
	}
	if eng.messages != untraced.Messages || res.Stats.Rounds != untraced.Rounds {
		return fmt.Errorf("traced solve charged %d rounds / %d messages, untraced %d / %d",
			res.Stats.Rounds, eng.messages, untraced.Rounds, untraced.Messages)
	}
	out.layer["core.solve_s"] = tr.dur(root).Seconds()
	out.layer["core.self_s"] = tr.self(root).Seconds()
	out.layer["core.alloc_mb"] = allocMB[mid]
	out.layer["core.gc_cycles"] = gcs[mid]
	out.layer["core.outer_sweeps"] = float64(res.Trace.OuterSweeps)
	out.layer["core.class_instances"] = float64(res.Trace.ClassInstances)
	out.layer["core.chain_levels"] = float64(res.Trace.ChainLevels)
	putPhases(out, ph, eng)
	out.layer["local.rounds"] = float64(res.Stats.Rounds)

	// One outside call each to the topology constructors and the verifier.
	t0 := time.Now()
	active := make([]bool, st.g.M())
	for e := range active {
		active[e] = true
	}
	local.Induced(local.PairConflict(graphPairs(st.g)), active, nil)
	out.layer["local.topology_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	err := verify.EdgeColoring(st.g, nil, res.Colors)
	out.layer["verify.check_s"] = time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("traced solve: %w", err)
	}
	out.spans = tr
	return nil
}

// putPhases reports per-phase engine totals and the engine-wide sums.
func putPhases(out *outcome, ph map[string]*phaseTotals, eng phaseTotals) {
	get := func(l string) phaseTotals {
		if p := ph[l]; p != nil {
			return *p
		}
		return phaseTotals{}
	}
	lin := get("linial")
	out.layer["linial.engine_s"] = lin.dur.Seconds()
	out.layer["linial.rounds"] = float64(lin.rounds)
	out.layer["linial.messages"] = float64(lin.messages)
	out.layer["linial.ns_per_msg"] = nsPerMsg(lin.dur, lin.messages)
	def := get("defective")
	out.layer["defective.engine_s"] = def.dur.Seconds()
	out.layer["defective.rounds"] = float64(def.rounds)
	out.layer["chain.engine_s"] = get("chain").dur.Seconds()
	base := get("base")
	out.layer["base.engine_s"] = base.dur.Seconds()
	out.layer["base.runs"] = float64(base.runs)
	out.layer["base.rounds"] = float64(base.rounds)
	out.layer["local.engine_s"] = eng.dur.Seconds()
	out.layer["local.engine_runs"] = float64(eng.runs)
	out.layer["local.engine_rounds"] = float64(eng.rounds)
	out.layer["local.messages"] = float64(eng.messages)
	out.layer["local.ns_per_msg"] = nsPerMsg(eng.dur, eng.messages)
}

func nsPerMsg(d time.Duration, msgs int64) float64 {
	if msgs == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(msgs)
}

// graphPairs is the pair system core.SolveGraph builds from a graph: one
// item per edge, occupying its two endpoints.
func graphPairs(g *distec.Graph) [][2]int64 {
	pairs := make([][2]int64, g.M())
	for e, ed := range g.Edges() {
		pairs[e] = [2]int64{int64(ed.U), int64(ed.V)}
	}
	return pairs
}
