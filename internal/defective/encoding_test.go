package defective

import (
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// The final color is the triple (lo, hi, pathColor) packed via triangular
// indexing; distinct triples must map to distinct colors within the palette.
func TestTriangularEncodingBijective(t *testing.T) {
	for _, beta := range []int{1, 2, 3} {
		b4 := 4 * beta
		seen := make(map[int][3]int)
		for lo := 0; lo < b4; lo++ {
			for hi := lo; hi < b4; hi++ {
				for c3 := 0; c3 < 3; c3++ {
					pair := lo*b4 - lo*(lo-1)/2 + (hi - lo)
					color := pair*3 + c3
					if color < 0 || color >= Palette(beta) {
						t.Fatalf("β=%d: triple (%d,%d,%d) -> color %d outside palette %d",
							beta, lo, hi, c3, color, Palette(beta))
					}
					if prev, dup := seen[color]; dup {
						t.Fatalf("β=%d: color %d encodes both %v and (%d,%d,%d)",
							beta, color, prev, lo, hi, c3)
					}
					seen[color] = [3]int{lo, hi, c3}
				}
			}
		}
		if len(seen) != Palette(beta) {
			t.Fatalf("β=%d: %d encodings for palette %d", beta, len(seen), Palette(beta))
		}
	}
}

// Defective coloring on a pure pair system (virtual-graph shape) with
// multi-links: the machinery the paper's recursion depends on.
func TestColorOnPairSystem(t *testing.T) {
	// A "barbell" of keys with a parallel link.
	pairs := [][2]int64{
		{100, 200}, {100, 200}, {200, 300}, {300, 400}, {400, 100},
		{100, 300}, {200, 400}, {300, 100},
	}
	// pairs[7] duplicates {100,300} of pairs[5] with swapped order.
	pairs[7] = [2]int64{300, 100}
	res, err := Color(local.NewPairs(pairs), 1, nil, 0, local.Sequential)
	if err != nil {
		t.Fatalf("Color: %v", err)
	}
	for i := range pairs {
		if res.Colors[i] < 0 || res.Colors[i] >= res.Palette {
			t.Fatalf("item %d color %d outside palette", i, res.Colors[i])
		}
	}
}

// initColors seeding: handing a proper small coloring down must not break
// correctness and must keep rounds small.
func TestColorWithInitialColoring(t *testing.T) {
	g := graph.RandomRegular(48, 6, 2)
	pairs := local.GraphPairs(g)
	// A proper coloring of the conflict system: edge IDs (X = m).
	init := make([]int, g.M())
	for i := range init {
		init[i] = i
	}
	res, err := Color(local.NewPairs(pairs), 2, init, g.M(), local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	checkDefectBound(t, g, nil, res.Colors, 2)
	if res.Stats.Rounds > 40 {
		t.Fatalf("rounds %d too high with seeded coloring", res.Stats.Rounds)
	}
}

func TestColorRejectsBadInitLength(t *testing.T) {
	g := graph.Cycle(6)
	if _, err := Color(local.NewPairs(local.GraphPairs(g)), 1, []int{1, 2}, 10, nil); err == nil {
		t.Fatal("accepted wrong-length initColors")
	}
}
