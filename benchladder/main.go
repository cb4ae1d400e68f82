// Command benchladder is the repository's layer-ladder benchmark. It drives
// the BKO solver, the serving pool and its cache, dynamic sessions and the
// persistence layer through their public entry points, checks every output,
// and prints one JSON result line:
//
//	go run . --workload bko-sparse --seed 1 --seconds 20 --trace 0
//
// Workloads are bko-sparse, bko-dense and pool-mix (see LAYERS.md). Each run
// does a fixed number of operations for its seed and --seconds, so every
// count repeats exactly. With --trace 0 the result holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics, taken from spans
// the benchmark records around its own calls into each layer, and the spans
// are written to .bench_build/spans/ in the working directory. Session logs
// go to .bench_build/ too and are removed at exit.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outcome is one run's measurements before they are printed.
type outcome struct {
	attempted, failed int
	e2e, layer        map[string]float64
	spans             *tracer
}

// endToEnd and perLayer list every metric the benchmark reports, with its
// unit; BENCHMARK.json lists the same names (checked by the tests).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"ops_per_s", "1/s"},
	{"color_p50_ms", "ms"},
	{"color_p90_ms", "ms"},
	{"cached_p50_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"update_p99_ms", "ms"},
	{"local_rounds", "count"},
	{"colors_used", "count"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
}

var perLayer = []metricDef{
	{"linial.engine_s", "s"},
	{"linial.rounds", "count"},
	{"linial.messages", "count"},
	{"linial.ns_per_msg", "ns"},
	{"local.engine_s", "s"},
	{"local.engine_runs", "count"},
	{"local.rounds", "count"},
	{"local.engine_rounds", "count"},
	{"local.messages", "count"},
	{"local.ns_per_msg", "ns"},
	{"local.topology_s", "s"},
	{"local.job_engine_ms", "ms"},
	{"local.job_engine_runs", "count"},
	{"defective.engine_s", "s"},
	{"defective.rounds", "count"},
	{"chain.engine_s", "s"},
	{"base.engine_s", "s"},
	{"base.runs", "count"},
	{"base.rounds", "count"},
	{"core.solve_s", "s"},
	{"core.self_s", "s"},
	{"core.alloc_mb", "MB"},
	{"core.gc_cycles", "count"},
	{"core.outer_sweeps", "count"},
	{"core.class_instances", "count"},
	{"core.chain_levels", "count"},
	{"core.job_self_ms", "ms"},
	{"core.job_alloc_mb", "MB"},
	{"distec.cache_hits", "count"},
	{"distec.cache_misses", "count"},
	{"distec.cache_hit_ratio", "ratio"},
	{"serve.jobs", "count"},
	{"serve.failed", "count"},
	{"serve.sequential_runs", "count"},
	{"serve.rounds", "count"},
	{"serve.messages", "count"},
	{"dynamic.apply_s", "s"},
	{"dynamic.self_s", "s"},
	{"dynamic.greedy", "count"},
	{"dynamic.repaired", "count"},
	{"dynamic.augmented", "count"},
	{"persist.append_s", "s"},
	{"persist.appends", "count"},
	{"persist.snapshot_s", "s"},
	{"persist.snapshot_bytes", "B"},
	{"persist.compact_s", "s"},
	{"persist.compactions", "count"},
	{"persist.open_s", "s"},
	{"persist.replayed_records", "count"},
	{"distec.restore_s", "s"},
	{"distec.replay_s", "s"},
	{"dynamic.verify_s", "s"},
	{"persist.rehydrate_ms", "ms"},
	{"verify.check_s", "s"},
	{"trace.overhead_pct", "%"},
	{"host.probe_ms", "ms"},
}

type metricDef struct{ name, unit string }

// scratchDir holds session logs and span files, relative to the working
// directory (the checkout root when run through run.sh).
const scratchDir = ".bench_build"

// sparseConfig, denseConfig and mixConfigFor size the workloads for a run
// of about the given number of seconds on a 2-vCPU host. The counts depend
// on seconds only, never on measured time.
//
// The nominal seconds per solve are near the medians measured on a 2-vCPU
// host: at 20 seconds, bko-sparse makes 7 solves of ~3 s and bko-dense 9 of
// ~2.5 s, so the dense color_p90_ms is mostly the second-slowest solve (see
// tailQuantile). The static probes are the same on both static workloads:
// per solve, a slice of 150 cache hits and 400 update batches;
// update_p99_ms is the median of the slices' p99s.
func sparseConfig(seconds int) staticConfig {
	return staticConfig{n: 25000, d: 8, setups: 3, solves: solvesFor(seconds, 3.2), traced: 3,
		cached: 150, sessN: 25000, sessD: 8, batches: 400, batchSize: 8}
}

func denseConfig(seconds int) staticConfig {
	return staticConfig{n: 1000, d: 64, setups: 3, solves: solvesFor(seconds, 2.5), traced: 3,
		cached: 150, sessN: 25000, sessD: 8, batches: 400, batchSize: 8}
}

func mixConfigFor(seconds int) mixConfig {
	return mixConfig{colorN: 128, colorD: 6, colorGraphs: 64, sessN: 25000, sessD: 8,
		cycles: max(40, 45*seconds), batchSize: 8, rehydrateEvery: 400, compactBytes: 32 << 10,
		setups: 3, dir: scratchDir}
}

// solvesFor returns an odd solve count (so the median is one solve) filling
// about seconds at nominal seconds per solve, at least three.
func solvesFor(seconds int, nominal float64) int {
	n := max(3, int(math.Round(float64(seconds)/nominal)))
	if n%2 == 0 {
		n++
	}
	return n
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchladder", flag.ContinueOnError)
	workload := fs.String("workload", "", "bko-sparse, bko-dense or pool-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "approximate measured seconds per run (sets the operation counts)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "benchladder: bad arguments")
		fs.Usage()
		return 2
	}
	traced := *traceFlag == 1
	ctx := context.Background()
	var (
		out *outcome
		err error
	)
	switch *workload {
	case "bko-sparse":
		out, err = runStatic(ctx, sparseConfig(*seconds), *seed, traced)
	case "bko-dense":
		out, err = runStatic(ctx, denseConfig(*seconds), *seed, traced)
	case "pool-mix":
		out, err = runMix(ctx, mixConfigFor(*seconds), *seed, traced)
	default:
		fmt.Fprintf(os.Stderr, "benchladder: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchladder:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchladder: host probe %.2f ms\n", out.layer["host.probe_ms"])
	if traced {
		path := fmt.Sprintf("%s/spans/%s-seed%d.json", scratchDir, *workload, *seed)
		if err := out.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchladder: writing spans:", err)
			return 1
		}
	}
	line, err := out.result(traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchladder:", err)
		return 1
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result encodes the result line: the end-to-end or the per-layer metrics,
// each of which the workload must have measured.
func (o *outcome) result(traced bool) ([]byte, error) {
	o.e2e["ok_ratio"] = float64(o.attempted-o.failed) / float64(max(1, o.attempted))
	defs, vals := endToEnd, o.e2e
	if traced {
		defs, vals = perLayer, o.layer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metricValue{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, metrics})
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's total obtained memory where /proc is missing.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// probeSink keeps the host probe's result live.
var probeSink uint64

// hostProbe times a fixed integer and memory loop that uses nothing of the
// repository — xorshift updates scattered over 32 MiB — and returns the
// median of five passes in milliseconds. It shows host drift between runs.
func hostProbe() float64 {
	buf := make([]uint64, 1<<22)
	x := uint64(88172645463325252)
	passes := make([]float64, 5)
	for p := range passes {
		t0 := time.Now()
		for i := 0; i < 1<<22; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[x&(1<<22-1)] += x
		}
		passes[p] = ms(time.Since(t0))
	}
	probeSink += x + buf[x&(1<<22-1)]
	return quantile(passes, 0.5)
}
