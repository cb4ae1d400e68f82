package distec

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/distec/distec/internal/trace"
)

// TestEngineEquivalence is the cross-engine harness: every Algorithm on a
// matrix of generator workloads must produce identical colorings, round
// counts, and message counts on the Sequential and Sharded engines — the
// latter across shard counts 1, 2, NumCPU, and one more than the entity
// count (edge-entity topologies have one entity per edge).
// The engines promise bit-identical executions, not merely equally valid
// colorings, so equality is exact.
func TestEngineEquivalence(t *testing.T) {
	workloads := []struct {
		name string
		g    *Graph
	}{
		{"ring", Cycle(64)},
		{"regular", RandomRegular(48, 6, 17)},
		{"bipartite", CompleteBipartite(9, 7)},
		{"gnp", GNP(40, 0.12, 23)},
		{"tree", RandomTree(50, 29)},
	}
	// Vizing is sequential whatever the engine, so its inclusion pins the
	// weaker (but still required) property that engine selection cannot
	// change its output.
	algorithms := []Algorithm{BKO, BKOTheory, PR01, GreedyClasses, Randomized, Vizing}
	for _, w := range workloads {
		for _, alg := range algorithms {
			t.Run(fmt.Sprintf("%s/%s", w.name, alg), func(t *testing.T) {
				base := Options{Algorithm: alg, Seed: 5}
				want, err := ColorEdges(w.g, base)
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				if err := Verify(w.g, want.Colors); err != nil {
					t.Fatalf("sequential coloring invalid: %v", err)
				}
				variants := []Options{
					{Algorithm: alg, Seed: 5, Engine: Sharded, Shards: 1},
					{Algorithm: alg, Seed: 5, Engine: Sharded, Shards: 2},
					{Algorithm: alg, Seed: 5, Engine: Sharded, Shards: runtime.NumCPU()},
					{Algorithm: alg, Seed: 5, Engine: Sharded, Shards: w.g.M() + 1},
				}
				for _, opts := range variants {
					name := string(opts.Engine)
					if opts.Engine == Sharded {
						name = fmt.Sprintf("sharded-%d", opts.Shards)
					}
					got, err := ColorEdges(w.g, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got.Rounds != want.Rounds {
						t.Errorf("%s: rounds %d, want %d", name, got.Rounds, want.Rounds)
					}
					if got.Messages != want.Messages {
						t.Errorf("%s: messages %d, want %d", name, got.Messages, want.Messages)
					}
					for e := range want.Colors {
						if got.Colors[e] != want.Colors[e] {
							t.Fatalf("%s: edge %d colored %d, want %d", name, e, got.Colors[e], want.Colors[e])
						}
					}
				}
			})
		}
	}
}

// TestEngineEquivalenceListInstance runs the harder (deg(e)+1)-list problem
// through both engines on the public list API.
func TestEngineEquivalenceListInstance(t *testing.T) {
	g := RandomRegular(36, 5, 41)
	dbar := g.MaxEdgeDegree()
	c := dbar + 3
	lists := make([][]int, g.M())
	for e := range lists {
		// Staggered lists: deg(e)+1 colors starting at a per-edge offset.
		lists[e] = make([]int, 0, dbar+1)
		for k := 0; k <= dbar; k++ {
			lists[e] = append(lists[e], (e+k)%c)
		}
		sort.Ints(lists[e])
	}
	want, err := ColorEdgesList(g, lists, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Engine: Sharded, Shards: 3},
		{Engine: Sharded},
	} {
		got, err := ColorEdgesList(g, lists, c, opts)
		if err != nil {
			t.Fatalf("%s: %v", opts.Engine, err)
		}
		if got.Rounds != want.Rounds || got.Messages != want.Messages {
			t.Fatalf("%s: stats %d/%d, want %d/%d", opts.Engine, got.Rounds, got.Messages, want.Rounds, want.Messages)
		}
		for e := range want.Colors {
			if got.Colors[e] != want.Colors[e] {
				t.Fatalf("%s: edge %d colored %d, want %d", opts.Engine, e, got.Colors[e], want.Colors[e])
			}
		}
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	for _, engine := range []Engine{"warp-drive", "goroutines"} {
		if _, err := ColorEdges(Cycle(8), Options{Engine: engine}); err == nil {
			t.Fatalf("accepted unknown engine %q", engine)
		}
	}
}

// TestEngineTraceEquivalence extends the equivalence promise to the
// execution trace: every engine must report the same span sequence
// (phase label, entity count, round count) and, round by round, the same
// engine-invariant counters — messages sent, entities with deliveries,
// entities halted, entities still active. Durations and per-shard busy
// times are timing, not semantics, and are excluded.
func TestEngineTraceEquivalence(t *testing.T) {
	workloads := []struct {
		name string
		g    *Graph
	}{
		{"ring", Cycle(48)},
		{"regular", RandomRegular(40, 6, 17)},
		{"gnp", GNP(36, 0.12, 23)},
	}
	algorithms := []Algorithm{BKO, PR01, Randomized}
	for _, w := range workloads {
		for _, alg := range algorithms {
			t.Run(fmt.Sprintf("%s/%s", w.name, alg), func(t *testing.T) {
				profile := func(opts Options) []string {
					tr := trace.New()
					opts.Trace = tr
					if _, err := ColorEdges(w.g, opts); err != nil {
						t.Fatalf("%s/%d: %v", opts.Engine, opts.Shards, err)
					}
					var out []string
					for si, sp := range tr.Spans() {
						if sp.Err != "" {
							t.Fatalf("%s/%d: span %d errored: %s", opts.Engine, opts.Shards, si, sp.Err)
						}
						out = append(out, fmt.Sprintf("span %d label=%q entities=%d rounds=%d",
							si, sp.Label, sp.Entities, len(sp.Rounds)))
						for _, ev := range sp.Rounds {
							out = append(out, fmt.Sprintf("  round %d msgs=%d recv=%d halted=%d active=%d quiescent=%v",
								ev.Round, ev.Messages, ev.Received, ev.Halted, ev.Active, ev.Quiescent()))
						}
					}
					return out
				}
				want := profile(Options{Algorithm: alg, Seed: 5})
				if len(want) == 0 {
					t.Fatal("sequential run produced an empty trace")
				}
				variants := []Options{
					{Algorithm: alg, Seed: 5, Engine: Sharded, Shards: 1},
					{Algorithm: alg, Seed: 5, Engine: Sharded, Shards: 3},
					{Algorithm: alg, Seed: 5, Engine: Sharded, Shards: w.g.M() + 1},
				}
				for _, opts := range variants {
					name := string(opts.Engine)
					if opts.Engine == Sharded {
						name = fmt.Sprintf("sharded-%d", opts.Shards)
					}
					got := profile(opts)
					if len(got) != len(want) {
						t.Fatalf("%s: trace has %d lines, want %d\ngot:\n%s\nwant:\n%s",
							name, len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: trace line %d = %q, want %q", name, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}
