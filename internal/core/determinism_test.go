package core

import (
	"math/rand"
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// TestBuildVirtualPairsDeterministic pins the fix for the map-order bug
// in buildVirtualPairs: virtual side-key IDs are interned in first-seen
// order, so iterating sideIdx directly minted IDs in map-iteration
// order and two runs over the same input could disagree. Every run must
// now produce the identical virtual pair system.
func TestBuildVirtualPairsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m, keys = 400, 60
	pairs := make([][2]int64, m)
	isMember := make(map[int]bool, m)
	for e := range pairs {
		a := rng.Int63n(keys)
		b := rng.Int63n(keys)
		for b == a {
			b = rng.Int63n(keys)
		}
		pairs[e] = [2]int64{a, b}
		if e%3 != 0 {
			isMember[e] = true
		}
	}
	active := make([]bool, m)
	for e := range active {
		active[e] = true
	}

	var refPairs [][2]int64
	var refActive []bool
	// Rebuild sideIdx fresh each iteration: distinct map instances
	// iterate in distinct orders, which is exactly what leaked before.
	for trial := 0; trial < 25; trial++ {
		sideIdx := buildSideIndex(pairs, active)
		vp, va := buildVirtualPairs(pairs, sideIdx, isMember, 4, m)
		if trial == 0 {
			refPairs, refActive = vp, va
			continue
		}
		for e := range vp {
			if vp[e] != refPairs[e] || va[e] != refActive[e] {
				t.Fatalf("trial %d: item %d got pair %v active %v, first run had %v %v",
					trial, e, vp[e], va[e], refPairs[e], refActive[e])
			}
		}
	}
}

// TestSpaceReduceOnceDeterministic runs the whole reduction twice on one
// instance and demands byte-identical assignments — the end-to-end
// consequence of the interning fix (cross-engine equivalence and WAL
// replay both assume repeated solves agree).
func TestSpaceReduceOnceDeterministic(t *testing.T) {
	g := graph.RandomRegular(64, 24, 3)
	pairs := local.GraphPairs(g)
	c := 256
	palette := make([]int, c)
	for i := range palette {
		palette[i] = i
	}
	lists := make([][]int, g.M())
	for e := range lists {
		lists[e] = palette
	}
	params := Practical()
	first, err := SpaceReduceOnce(pairs, nil, lists, c, 16, params, local.Sequential)
	if err != nil {
		t.Fatalf("first SpaceReduceOnce: %v", err)
	}
	for trial := 0; trial < 5; trial++ {
		again, err := SpaceReduceOnce(pairs, nil, lists, c, 16, params, local.Sequential)
		if err != nil {
			t.Fatalf("repeat SpaceReduceOnce: %v", err)
		}
		for e := range first.Assign {
			if again.Assign[e] != first.Assign[e] {
				t.Fatalf("trial %d: item %d assigned %d, first run assigned %d",
					trial, e, again.Assign[e], first.Assign[e])
			}
		}
	}
}
