package core

import (
	"math/rand"
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// TestBuildVirtualPairsDeterministic pins the fix for the map-order bug
// of the virtual-graph construction: virtual side IDs were once interned
// while walking a map, in map-iteration order, and two runs over the same
// input could disagree. Every run must produce the identical virtual pair
// system.
func TestBuildVirtualPairsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m, keys = 400, 60
	pairs := make([][2]int64, m)
	var members []int32
	for e := range pairs {
		a := rng.Int63n(keys)
		b := rng.Int63n(keys)
		for b == a {
			b = rng.Int63n(keys)
		}
		pairs[e] = [2]int64{a, b}
		if e%3 != 0 {
			members = append(members, int32(e))
		}
	}

	var ref [][2]int32
	// Rebuild the systems fresh each iteration: distinct map instances
	// iterate in distinct orders, which is exactly what leaked before.
	for trial := 0; trial < 25; trial++ {
		vp := virtualPairs(local.NewPairs(pairs).Sub(members), 4)
		if trial == 0 {
			ref = vp.Key
			continue
		}
		for i := range vp.Key {
			if vp.Key[i] != ref[i] {
				t.Fatalf("trial %d: member %d got sides %v, first run had %v", trial, i, vp.Key[i], ref[i])
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
