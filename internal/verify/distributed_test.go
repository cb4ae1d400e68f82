package verify

import (
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/sharded"
)

func TestDistributedCheckAcceptsValid(t *testing.T) {
	g := graph.RandomRegular(40, 4, 1)
	tp := local.EdgeConflict(g)
	init := make([]int, tp.N())
	for i := range init {
		init[i] = i
	}
	colors, _, err := linial.Reduce(tp, init, tp.N(), local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	ok, stats, err := DistributedCheck(local.EdgeConflict(g), colors, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid coloring rejected")
	}
	if stats.Rounds != 1 {
		t.Fatalf("check used %d rounds, want 1 (local checkability)", stats.Rounds)
	}
}

func TestDistributedCheckRejectsConflict(t *testing.T) {
	g := graph.Path(4)
	// Middle two edges conflict.
	ok, _, err := DistributedCheck(local.EdgeConflict(g), []int{0, 1, 1}, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("conflicting coloring accepted")
	}
}

func TestDistributedCheckRejectsUncolored(t *testing.T) {
	g := graph.Path(3)
	ok, _, err := DistributedCheck(local.EdgeConflict(g), []int{0, -1}, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("uncolored edge accepted")
	}
}

func TestDistributedCheckBothEngines(t *testing.T) {
	g := graph.Complete(7)
	colors := make([]int, g.M())
	// A valid coloring via the sequential oracle: distinct colors.
	for e := range colors {
		colors[e] = e
	}
	for _, run := range []local.Engine{local.Sequential, sharded.New(sharded.Config{Shards: 3})} {
		ok, _, err := DistributedCheck(local.EdgeConflict(g), colors, run)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("rainbow coloring rejected")
		}
	}
}

func TestDistributedCheckLengthMismatch(t *testing.T) {
	g := graph.Path(3)
	if _, _, err := DistributedCheck(local.EdgeConflict(g), []int{0}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
