package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"github.com/distec/distec/internal/defective"
	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/randomized"
)

// TestOutputsPinned pins what the solvers compute on a fixed matrix of
// graphs: colors, rounds, messages and every Trace field of core.SolveGraph
// under four presets and three list shapes, plus the defective coloring
// with and without a mask, the base solver, one space reduction and the
// randomized baseline. Each graph's runs feed one SHA-256 digest. A change
// to the algorithm must change these digests on purpose; a refactor must
// leave them alone.
func TestOutputsPinned(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(30)},
		{"grid", graph.Grid(8, 8)},
		{"k17", graph.Complete(17)},
		{"k12,12", graph.CompleteBipartite(12, 12)},
		{"star", graph.Star(20)},
		{"powerlaw", graph.PowerLaw(200, 2.5, 30, 3)},
		{"gnp", graph.GNP(120, 0.08, 5)},
		{"ba", graph.BarabasiAlbert(150, 4, 7)},
		{"cliquechain", graph.CliqueChain(4, 6)},
		{"geometric", graph.RandomGeometric(150, 0.15, 4)},
		{"regular8", graph.RandomRegular(200, 8, 1)},
		{"regular16", graph.RandomRegular(100, 16, 2)},
		{"regular24", graph.RandomRegular(64, 24, 3)},
	}
	// deep drives the phased E(1) machinery and its virtual-graph
	// recursion, which the presets reach only at Δ̄ ≥ 226.
	deep := Practical()
	deep.BaseDegree, deep.StopPalette = 2, 4
	deep.Beta = func(int, int) int { return 1 }
	deep.P = func(int, int) int { return 32 }
	direct := Practical()
	direct.DirectAssignment = true
	presets := []Params{Practical(), Theory(1, 1), direct, deep}
	got := map[string]string{}
	for _, tc := range graphs {
		g := tc.g
		h := sha256.New()
		mask := make([]bool, g.M())
		for e := range mask {
			mask[e] = e%3 != 0
		}
		dbar := g.MaxEdgeDegree()
		degLists, err := listcolor.NewDegreeLists(g, 4*g.MaxDegree(), 11)
		if err != nil {
			t.Fatal(err)
		}
		instances := []*listcolor.Instance{
			listcolor.NewUniform(g, max(1, 2*g.MaxDegree()-1)),
			listcolor.NewUniform(g, dbar+1),
			degLists,
		}
		for pi, params := range presets {
			for li, in := range instances {
				res, err := SolveGraph(in, params, local.Sequential)
				if err != nil {
					t.Fatalf("%s preset %d lists %d: %v", tc.name, pi, li, err)
				}
				pinInts(h, res.Colors)
				pinStats(h, res.Stats)
				pinTrace(h, &res.Trace)
			}
		}
		for _, active := range [][]bool{nil, mask} {
			for _, beta := range []int{1, 2} {
				res, err := defective.ColorGraph(g, active, beta, local.Sequential)
				if err != nil {
					t.Fatalf("%s defective: %v", tc.name, err)
				}
				pinInts(h, res.Colors)
				fmt.Fprint(h, res.Palette)
				pinStats(h, res.Stats)
			}
		}
		base := listcolor.NewUniform(g, dbar+1)
		colors, st, err := listcolor.SolveBase(base, nil, 0, local.Sequential)
		if err != nil {
			t.Fatalf("%s SolveBase: %v", tc.name, err)
		}
		pinInts(h, colors)
		pinStats(h, st)
		init := make([]int, g.M())
		for e := range init {
			init[e] = g.M() - 1 - e
		}
		base.Active = mask
		colors, st, err = listcolor.SolveBase(base, init, g.M(), local.Sequential)
		if err != nil {
			t.Fatalf("%s masked SolveBase: %v", tc.name, err)
		}
		pinInts(h, colors)
		pinStats(h, st)
		c := 4 * g.MaxDegree()
		for _, p := range []int{4, 16, 64} {
			for _, active := range [][]bool{nil, mask} {
				red, err := SpaceReduceOnce(local.GraphPairs(g), active, listcolor.NewUniform(g, c).Lists, c, p, deep, local.Sequential)
				if err != nil {
					t.Fatalf("%s SpaceReduceOnce p=%d: %v", tc.name, p, err)
				}
				pinInts(h, red.Assign)
				fmt.Fprint(h, red.Partition)
				pinStats(h, red.Stats)
				pinStats(h, red.PrepStats)
				pinTrace(h, &red.Trace)
			}
		}
		for _, active := range [][]bool{nil, mask} {
			colors, st, err := randomized.Solve(g, active, instances[0].Lists, 5, local.Sequential)
			if err != nil {
				t.Fatalf("%s randomized: %v", tc.name, err)
			}
			pinInts(h, colors)
			pinStats(h, st)
		}
		got[tc.name] = hex.EncodeToString(h.Sum(nil))
	}
	want := map[string]string{
		"cycle":       "cd1999282cdd155175cdc14c118be58c4d07a646a87c519369cbcaea67433cc4",
		"grid":        "bce5f7d4bf0f58f7d2e8399a5f8d1f5a286b8c2164536d89811f409f3aa3714c",
		"k17":         "d674807fcaa4e4fa75cc40686ec16cb0aa4943b5970d6e3f3ee3b9107d3e5456",
		"k12,12":      "63e0ffe42ba54d35b92456e1d1e879cde868b9679ed07bb544e7d4bce995b1f5",
		"star":        "d3cc643e94ba956abdbad40798ec7f11f8be50c3186e667ab1b2f602c9d041b1",
		"powerlaw":    "a135d3f345cdb35d6bec8c9c8dd14b8e28c561acfd3ec0b3420e0bbe0c9d6b7e",
		"gnp":         "50eb324afbb411bc1c298ab5b72bb4a8803115faafbb17f9bd614e74f59d7438",
		"ba":          "a0f6c9b30e10e0c6202f60505b8498880f1e39cac691e73d6c506f72cbb248c8",
		"cliquechain": "5385cf836ebc88f126447926c35d8a40bc1eb2c057fb01a02cf95f9f5d6795dd",
		"geometric":   "19d7743974e911a14c1f6caac95a9f513f9c1731e3955f200bfd633578aee903",
		"regular8":    "5691895eabc321287683e7f08be83869622012573b3b910a0854869a4692626c",
		"regular16":   "aadd2230e2402027a8e9f8e7598336487bc54f5863b3e710a7a804efd50692cd",
		"regular24":   "c356795c56ae3e3ab464ca34a52fc12849b193084286d00baf85efd91bc99e2e",
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: sha256 %s, want %s", name, sum, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("digested %d graphs, pinned %d", len(got), len(want))
	}
}

func pinInts(h hash.Hash, xs []int) { fmt.Fprintln(h, xs) }

func pinStats(h hash.Hash, st local.Stats) { fmt.Fprintln(h, st.Rounds, st.Messages) }

// pinTrace digests every Trace field, Eq2Worst rounded to six decimals.
func pinTrace(h hash.Hash, tr *Trace) {
	fmt.Fprintln(h, tr.OuterSweeps, tr.DefectiveCalls, tr.ClassInstances, tr.ChainLevels,
		tr.PhaseInstances, tr.E2Instances, tr.DirectAssigns, tr.VirtualRecursion, tr.Deferred,
		tr.BetaBailouts, tr.DeepestRecursion, fmt.Sprintf("%.6f", tr.Eq2Worst), tr.LevelHistogram, tr.SweepDegrees)
}
