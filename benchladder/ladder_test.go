package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// Tiny versions of the three workloads: the same code paths, sized to run
// in seconds.
func tinySparse() staticConfig {
	return staticConfig{n: 2000, d: 8, setups: 2, solves: 3, traced: 1, cached: 2,
		sessN: 500, sessD: 6, batches: 7, batchSize: 8}
}

func tinyDense() staticConfig {
	return staticConfig{n: 200, d: 24, setups: 2, solves: 3, traced: 1, cached: 2,
		sessN: 500, sessD: 6, batches: 7, batchSize: 8}
}

func tinyMix(dir string) mixConfig {
	return mixConfig{colorN: 32, colorD: 4, colorGraphs: 40, sessN: 500, sessD: 6,
		cycles: 30, batchSize: 8, rehydrateEvery: 25, compactBytes: 1 << 10, setups: 2, dir: dir}
}

func runTiny(t *testing.T, workload string) *outcome {
	t.Helper()
	ctx := context.Background()
	var (
		out *outcome
		err error
	)
	switch workload {
	case "bko-sparse":
		out, err = runStatic(ctx, tinySparse(), 7, true)
	case "bko-dense":
		out, err = runStatic(ctx, tinyDense(), 7, true)
	case "pool-mix":
		out, err = runMix(ctx, tinyMix(t.TempDir()), 7, true)
	}
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed", workload, out.failed, out.attempted)
	}
	for _, traced := range []bool{false, true} {
		if _, err := out.result(traced); err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
	}
	return out
}

// TestExactCounts runs each workload twice with one seed: every count must
// repeat exactly. (The traced run's own cross-check — traced rounds,
// messages and colorings equal to the untraced ones — fails runStatic and
// runMix if tracing changed the work.)
func TestExactCounts(t *testing.T) {
	e2e := []string{"local_rounds", "colors_used"}
	layer := []string{"local.rounds", "local.messages", "local.engine_runs", "linial.messages",
		"base.runs", "core.class_instances", "dynamic.greedy", "dynamic.repaired", "dynamic.augmented",
		"distec.cache_hits", "distec.cache_misses", "serve.jobs", "persist.appends", "persist.compactions",
		"persist.replayed_records"}
	for _, w := range []string{"bko-sparse", "bko-dense", "pool-mix"} {
		t.Run(w, func(t *testing.T) {
			a, b := runTiny(t, w), runTiny(t, w)
			for _, k := range e2e {
				if a.e2e[k] != b.e2e[k] {
					t.Errorf("%s: %v then %v", k, a.e2e[k], b.e2e[k])
				}
			}
			for _, k := range layer {
				if a.layer[k] != b.layer[k] {
					t.Errorf("%s: %v then %v", k, a.layer[k], b.layer[k])
				}
			}
			if a.attempted != b.attempted {
				t.Errorf("attempted: %d then %d", a.attempted, b.attempted)
			}
		})
	}
}

// TestSpanAccountingCloses checks that the named parts add up to their
// whole: core.self_s plus the labelled engine spans is core.solve_s, and
// dynamic.self_s plus the journal spans is dynamic.apply_s.
func TestSpanAccountingCloses(t *testing.T) {
	for _, w := range []string{"bko-sparse", "bko-dense", "pool-mix"} {
		t.Run(w, func(t *testing.T) {
			l := runTiny(t, w).layer
			phases := l["linial.engine_s"] + l["defective.engine_s"] + l["chain.engine_s"] + l["base.engine_s"]
			closeTo(t, "local.engine_s", phases, l["local.engine_s"])
			closeTo(t, "core.solve_s", l["core.self_s"]+phases, l["core.solve_s"])
			journal := l["persist.append_s"] + l["persist.snapshot_s"] + l["persist.compact_s"]
			closeTo(t, "dynamic.apply_s", l["dynamic.self_s"]+journal, l["dynamic.apply_s"])
			if l["core.self_s"] <= 0 || l["local.engine_s"] <= 0 {
				t.Errorf("core.self_s %v, local.engine_s %v: want both positive", l["core.self_s"], l["local.engine_s"])
			}
		})
	}
	mix := runTiny(t, "pool-mix").layer
	for _, k := range []string{"persist.compactions", "persist.replayed_records", "distec.cache_hits", "distec.cache_misses"} {
		if mix[k] == 0 {
			t.Errorf("pool-mix %s = 0: the tiny run does not reach that layer", k)
		}
	}
}

func closeTo(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Max(1, want) {
		t.Errorf("%s: parts sum to %v, whole is %v", name, got, want)
	}
}

// TestCatalogMatchesBenchmarkJSON pins the metric names and units the
// program prints to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != 3 || names[0] != "bko-sparse" || names[1] != "bko-dense" || names[2] != "pool-mix" {
		t.Errorf("workloads %v, want bko-sparse, bko-dense, pool-mix", names)
	}
}

// TestTailQuantile pins both estimators: the mean of the samples within
// half a percentile of q when that window holds two or more, and linear
// interpolation between the order statistics around q when it holds one.
func TestTailQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the estimator sorts
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{9, 0.9, 8.2},       // 0.8 of the 8th plus 0.2 of the 9th
		{7, 0.9, 6.4},       // 0.6 of the 6th plus 0.4 of the 7th
		{1, 0.9, 1},         // a single sample
		{400, 0.99, 396.5},  // mean of ranks 394–399
		{3600, 0.9, 3240.5}, // mean of ranks 3222–3259
	} {
		if got := tailQuantile(seq(c.n), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailQuantile(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}
