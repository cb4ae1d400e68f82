package local

import (
	"math/rand"
	"slices"
	"testing"
)

// randomPairs draws m items over a few arbitrary int64 keys, so items
// often share both keys (multi-links).
func randomPairs(rng *rand.Rand, m, keys int) [][2]int64 {
	vals := make([]int64, keys)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63()
	}
	pairs := make([][2]int64, m)
	for i := range pairs {
		a, b := rng.Intn(keys), rng.Intn(keys-1)
		if b >= a {
			b++
		}
		pairs[i] = [2]int64{vals[a], vals[b]}
	}
	return pairs
}

// definedPorts is the definition of item i's ports among the items j with
// keep(j): the other kept items on its first key in item order, then those
// on its second key.
func definedPorts(pairs [][2]int64, i int, keep func(j int) bool) []int {
	var out []int
	for _, k := range pairs[i] {
		for j, pr := range pairs {
			if j != i && keep(j) && (pr[0] == k || pr[1] == k) {
				out = append(out, j)
			}
		}
	}
	return out
}

// checkPairs requires p to be the pair system of pairs[items[k]] (item k
// of p is items[k]) and its topology to follow the port definition.
func checkPairs(t *testing.T, pairs [][2]int64, items []int, p *Pairs) {
	t.Helper()
	if len(p.Key) != len(items) {
		t.Fatalf("%d items, want %d", len(p.Key), len(items))
	}
	kept := make(map[int]int, len(items)) // original index -> item of p
	for k, e := range items {
		kept[e] = k
	}
	keys := map[int64]int32{}
	for k, e := range items {
		for x, key := range pairs[e] {
			s := p.Key[k][x]
			if prev, ok := keys[key]; ok && prev != s {
				t.Fatalf("key %d is sides %d and %d", key, prev, s)
			}
			keys[key] = s
			if p.Side(s)[p.Pos[k][x]] != int32(k) {
				t.Fatalf("item %d is not at position %d of its side %d", k, p.Pos[k][x], s)
			}
		}
	}
	if p.Sides() != len(keys) {
		t.Fatalf("%d sides for %d distinct keys", p.Sides(), len(keys))
	}
	for s := int32(0); s < int32(p.Sides()); s++ {
		if !slices.IsSorted(p.Side(s)) {
			t.Fatalf("side %d lists %v, not in item order", s, p.Side(s))
		}
	}
	topo := p.Topology()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	maxDeg := 0
	for k, e := range items {
		var want []int32
		for _, j := range definedPorts(pairs, e, func(j int) bool { _, ok := kept[j]; return ok }) {
			want = append(want, int32(kept[j]))
		}
		if !slices.Equal(topo.Ports[k], want) {
			t.Fatalf("item %d: ports %v, want %v", k, topo.Ports[k], want)
		}
		if p.Degree(k) != len(want) {
			t.Fatalf("item %d: Degree %d, %d ports", k, p.Degree(k), len(want))
		}
		maxDeg = max(maxDeg, len(want))
	}
	if p.MaxDegree() != maxDeg || topo.MaxDeg != maxDeg {
		t.Fatalf("MaxDegree %d, topology MaxDeg %d, want %d", p.MaxDegree(), topo.MaxDeg, maxDeg)
	}
}

// TestPairsMatchDefinition checks NewPairs, Sub and ActivePairs against the
// pair-system definition on random systems with multi-links.
func TestPairsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		pairs := randomPairs(rng, rng.Intn(40), 2+rng.Intn(10))
		all := make([]int, len(pairs))
		for i := range all {
			all[i] = i
		}
		p := NewPairs(pairs)
		checkPairs(t, pairs, all, p)

		active := make([]bool, len(pairs))
		var members []int32
		var items []int
		for i := range active {
			if active[i] = rng.Intn(3) != 0; active[i] {
				members = append(members, int32(i))
				items = append(items, i)
			}
		}
		checkPairs(t, pairs, items, p.Sub(members))
		sys, orig := ActivePairs(pairs, active)
		if !slices.Equal(orig, members) {
			t.Fatalf("ActivePairs kept %v, want %v", orig, members)
		}
		checkPairs(t, pairs, items, sys)
	}
	if sys, orig := ActivePairs([][2]int64{{1, 2}, {2, 3}}, nil); len(orig) != 2 || sys.Degree(0) != 1 {
		t.Fatalf("ActivePairs with a nil mask kept %v", orig)
	}
}
