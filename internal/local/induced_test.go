package local

import (
	"testing"

	"github.com/distec/distec/internal/graph"
)

func TestInducedSubsetOnly(t *testing.T) {
	g := graph.Complete(6)
	tp := EdgeConflict(g)
	keep := make([]bool, tp.N())
	for i := 0; i < tp.N(); i += 2 {
		keep[i] = true
	}
	sub, orig, back := Induced(tp, keep, nil)
	if err := sub.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := (tp.N() + 1) / 2
	if sub.N() != want {
		t.Fatalf("sub.N = %d, want %d", sub.N(), want)
	}
	for ni, oi := range orig {
		if back[oi] != ni {
			t.Fatalf("mapping mismatch at new=%d orig=%d", ni, oi)
		}
		if !keep[oi] {
			t.Fatalf("dropped entity %d appears in subtopology", oi)
		}
	}
	for oi, ni := range back {
		if !keep[oi] && ni != -1 {
			t.Fatalf("dropped entity %d has mapping %d", oi, ni)
		}
	}
	// Every surviving link must exist in the original.
	for ni := range sub.Ports {
		for _, nj := range sub.Ports[ni] {
			oi, oj := orig[ni], orig[nj]
			found := false
			for _, p := range tp.Ports[oi] {
				if int(p) == oj {
					found = true
				}
			}
			if !found {
				t.Fatalf("link %d-%d not present in original", oi, oj)
			}
		}
	}
}

func TestInducedKeepLink(t *testing.T) {
	g := graph.Complete(5)
	tp := EdgeConflict(g)
	keep := make([]bool, tp.N())
	for i := range keep {
		keep[i] = true
	}
	// Keep only links whose endpoints have the same parity.
	keepLink := func(i, p int) bool { return i%2 == int(tp.Ports[i][p])%2 }
	sub, orig, _ := Induced(tp, keep, keepLink)
	if err := sub.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for ni := range sub.Ports {
		for _, nj := range sub.Ports[ni] {
			if orig[ni]%2 != orig[nj]%2 {
				t.Fatalf("link %d-%d survived keepLink filter", orig[ni], orig[nj])
			}
		}
	}
}

func TestPairConflictMultiLink(t *testing.T) {
	// Two items occupying the same two keys: a virtual-graph multigraph.
	pairs := [][2]int64{{10, 20}, {10, 20}, {20, 30}}
	tp := PairConflict(pairs)
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Items 0 and 1 share BOTH keys: two parallel links.
	count := 0
	for _, j := range tp.Ports[0] {
		if j == 1 {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("items sharing two keys have %d links, want 2", count)
	}
	if tp.Degree(0) != 3 { // item 1 twice + item 2 once
		t.Fatalf("degree of item 0 = %d, want 3", tp.Degree(0))
	}
}

func TestPairConflictRejectsSelfKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PairConflict accepted an item with equal keys")
		}
	}()
	PairConflict([][2]int64{{5, 5}})
}

func TestPairConflictMatchesEdgeConflict(t *testing.T) {
	g := graph.RandomRegular(24, 4, 3)
	a := EdgeConflict(g)
	pairs := make([][2]int64, g.M())
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(graph.EdgeID(e))
		pairs[e] = [2]int64{int64(u), int64(v)}
	}
	b := PairConflict(pairs)
	if a.N() != b.N() || a.MaxDeg != b.MaxDeg {
		t.Fatalf("mismatch: %d/%d vs %d/%d", a.N(), a.MaxDeg, b.N(), b.MaxDeg)
	}
	for i := range a.Ports {
		if len(a.Ports[i]) != len(b.Ports[i]) {
			t.Fatalf("entity %d degree differs", i)
		}
		for p := range a.Ports[i] {
			if a.Ports[i][p] != b.Ports[i][p] || a.Back[i][p] != b.Back[i][p] {
				t.Fatalf("entity %d port %d wiring differs", i, p)
			}
		}
	}
}
