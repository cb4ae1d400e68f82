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
// randomized baseline. Each graph's runs feed two SHA-256 digests: one over
// colors, rounds and trace fields, one over message counts. A change to the
// algorithm must change these digests on purpose; a refactor must leave
// them alone, and a change to what protocols send moves only the second.
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
	got, gotMsgs := map[string]string{}, map[string]string{}
	for _, tc := range graphs {
		g := tc.g
		h, hm := sha256.New(), sha256.New()
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
				pinStats(h, hm, res.Stats)
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
				pinStats(h, hm, res.Stats)
			}
		}
		base := listcolor.NewUniform(g, dbar+1)
		colors, st, err := listcolor.SolveBase(base, nil, 0, local.Sequential)
		if err != nil {
			t.Fatalf("%s SolveBase: %v", tc.name, err)
		}
		pinInts(h, colors)
		pinStats(h, hm, st)
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
		pinStats(h, hm, st)
		c := 4 * g.MaxDegree()
		for _, p := range []int{4, 16, 64} {
			for _, active := range [][]bool{nil, mask} {
				red, err := SpaceReduceOnce(local.GraphPairs(g), active, listcolor.NewUniform(g, c).Lists, c, p, deep, local.Sequential)
				if err != nil {
					t.Fatalf("%s SpaceReduceOnce p=%d: %v", tc.name, p, err)
				}
				pinInts(h, red.Assign)
				fmt.Fprint(h, red.Partition)
				pinStats(h, hm, red.Stats)
				pinStats(h, hm, red.PrepStats)
				pinTrace(h, &red.Trace)
			}
		}
		for _, active := range [][]bool{nil, mask} {
			colors, st, err := randomized.Solve(g, active, instances[0].Lists, 5, local.Sequential)
			if err != nil {
				t.Fatalf("%s randomized: %v", tc.name, err)
			}
			pinInts(h, colors)
			pinStats(h, hm, st)
		}
		got[tc.name] = hex.EncodeToString(h.Sum(nil))
		gotMsgs[tc.name] = hex.EncodeToString(hm.Sum(nil))
	}
	want := map[string]string{
		"cycle":       "1d204b81b2b72e8a5dfb05048ff307808c1865bbafbcab0d35c0afe579876edb",
		"grid":        "57b449823b34caa73a724ec1309968edcd864391cf160855dfe8f35a774874cf",
		"k17":         "5cb0dbe48c035a1088d4ba695964de589ddfb954ae91948d3fd25bce7c2a9d0b",
		"k12,12":      "648f7135f06bf608cda91cedd42e7b4e42e52f6da1aa6e4b3c028e9c0567a6d7",
		"star":        "3754ea2c9585525248ab137c68b170ff04efe864ea14a50de46087e475f131e6",
		"powerlaw":    "4406a519d111f9b946085c77e1b33d607de10ccaaeefbac6970dbf4f828b2163",
		"gnp":         "23ec6ca48e7bf2e090e10df4e9205a920f7fdb83fc2b1070941ce48e9b05e35a",
		"ba":          "920801337ad6ad483eaafa59fb6227cc3207d62a84679568f54b42d6d5e3f1d0",
		"cliquechain": "29f2649c6b564ad6aba3032468c685abf68df8f953128181f67e32cf4a0b1b8c",
		"geometric":   "f649a9d559f8c7db412322f34d50def6e7812364e874a945e0d64ec7f0e6da26",
		"regular8":    "2bb796614bdde5edd9c07b14cffd91e3378402ed0ea42fe15503b52d0f5fc8c4",
		"regular16":   "ddda40cb996b201c95d6fb487181d5395b6d1a55d3541f57418b867a16d44235",
		"regular24":   "fe50cc8f19d955ce058d1424327f7195468816b010106b4de539afe71e629736",
	}
	wantMsgs := map[string]string{
		"cycle":       "691005a6167ca72891cbb5a90b72b82a058b278019e403a380c5a1bbdc6a2790",
		"grid":        "37780c2b765457eb611b8f78d516c17d7c8d35fd8868ae7ab77a9fdec0c6d4b2",
		"k17":         "03878f5b7c83b7a02b7491d9122a89faeed2618c3e07e0c65cc90e5bc877fdda",
		"k12,12":      "9f8a91a2076b822f0bfc6fa7e92e5bad75ca9112948b2b98f2b8a8aeb871960c",
		"star":        "183cde4a33953f4da094cdd1d4c61ae85f7d5b638437c20841134ad91650df5b",
		"powerlaw":    "73e18ce24e87f1f5ad3fe208f937d89bdb342aff72a76c9ee9f07df5f7d89ffd",
		"gnp":         "9c8761f7dd1db04c17305018409f5211a23cfa4b5644e783a0076e5ea6eee879",
		"ba":          "39ae42d3d4637d91d86df4f25cf85333bceef99a9fce9ebe6c590370f00eefc9",
		"cliquechain": "9e81a47efbd94550d925c1065ee2bd49b02328ea6b4aca450727852305e7473e",
		"geometric":   "d389b41b8e320664fec82e88099617a7a260d864674c61edd38861dce5cfc9a8",
		"regular8":    "f281094703fa6390065e8c401fa7ebd643771c8ca0491fdb77d2471d15d0559f",
		"regular16":   "d40b56d43c245bb5d24bcc441c461e3fac0eb58955c3bb7e864c7e8ffafe7c2e",
		"regular24":   "6a8c392916e15d7827c4948210e6e53aec7adaafb7f01ac2821c773e5d7d0920",
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: colors/rounds/trace sha256 %s, want %s", name, sum, want[name])
		}
		if wantMsgs[name] != gotMsgs[name] {
			t.Errorf("%s: messages sha256 %s, want %s", name, gotMsgs[name], wantMsgs[name])
		}
	}
	if len(got) != len(want) || len(got) != len(wantMsgs) {
		t.Errorf("digested %d graphs, pinned %d and %d", len(got), len(want), len(wantMsgs))
	}
}

func pinInts(h hash.Hash, xs []int) { fmt.Fprintln(h, xs) }

// pinStats digests rounds into h and messages into hm.
func pinStats(h, hm hash.Hash, st local.Stats) {
	fmt.Fprintln(h, st.Rounds)
	fmt.Fprintln(hm, st.Messages)
}

// pinTrace digests every Trace field, Eq2Worst rounded to six decimals.
func pinTrace(h hash.Hash, tr *Trace) {
	fmt.Fprintln(h, tr.OuterSweeps, tr.DefectiveCalls, tr.ClassInstances, tr.ChainLevels,
		tr.PhaseInstances, tr.E2Instances, tr.DirectAssigns, tr.VirtualRecursion, tr.Deferred,
		tr.BetaBailouts, tr.DeepestRecursion, fmt.Sprintf("%.6f", tr.Eq2Worst), tr.LevelHistogram, tr.SweepDegrees)
}
