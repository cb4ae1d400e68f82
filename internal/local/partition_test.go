package local

import (
	"math/rand"
	"testing"
)

func checkPartition(t *testing.T, weights []int, shards int) []int {
	t.Helper()
	bounds := Partition(weights, shards)
	n := len(weights)
	eff := len(bounds) - 1
	if bounds[0] != 0 || bounds[eff] != n {
		t.Fatalf("bounds %v do not cover [0,%d)", bounds, n)
	}
	want := shards
	if want > n {
		want = n
	}
	if want < 1 {
		want = 1
	}
	if eff != want {
		t.Fatalf("effective shards = %d, want %d (n=%d, requested %d)", eff, want, n, shards)
	}
	for s := 0; s < eff; s++ {
		if bounds[s+1] <= bounds[s] && n > 0 {
			t.Fatalf("block %d empty: bounds %v", s, bounds)
		}
	}
	return bounds
}

func TestPartitionEmpty(t *testing.T) {
	for _, shards := range []int{1, 4} {
		bounds := Partition(nil, shards)
		if len(bounds) != 2 || bounds[0] != 0 || bounds[1] != 0 {
			t.Fatalf("Partition(nil, %d) = %v, want [0 0]", shards, bounds)
		}
	}
}

func TestPartitionCoversAndNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		weights := make([]int, n)
		for i := range weights {
			weights[i] = 1 + rng.Intn(20)
		}
		for _, shards := range []int{1, 2, 3, n - 1, n, n + 1, 4 * n} {
			if shards < 1 {
				continue
			}
			checkPartition(t, weights, shards)
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	// Uniform weights must split into blocks within one entity of each other.
	weights := make([]int, 1000)
	for i := range weights {
		weights[i] = 1
	}
	bounds := checkPartition(t, weights, 8)
	for s := 0; s+1 < len(bounds); s++ {
		size := bounds[s+1] - bounds[s]
		if size < 125 || size > 126 {
			t.Fatalf("block %d has %d entities, want 125±1", s, size)
		}
	}
	// Skewed weights: no block may exceed the ideal share by more than the
	// largest single weight (the partitioner cuts at the first overshoot).
	rng := rand.New(rand.NewSource(4))
	maxW := 0
	var total int64
	for i := range weights {
		weights[i] = 1 + rng.Intn(50)
		if weights[i] > maxW {
			maxW = weights[i]
		}
		total += int64(weights[i])
	}
	bounds = checkPartition(t, weights, 8)
	ideal := total / 8
	for s := 0; s+1 < len(bounds); s++ {
		var w int64
		for i := bounds[s]; i < bounds[s+1]; i++ {
			w += int64(weights[i])
		}
		if w > ideal+int64(maxW) {
			t.Fatalf("block %d weight %d exceeds ideal %d + max %d", s, w, ideal, maxW)
		}
	}
}

func TestShardMapMonotone(t *testing.T) {
	weights := make([]int, 37)
	for i := range weights {
		weights[i] = 1 + i%5
	}
	bounds := Partition(weights, 5)
	m := shardMap(bounds, len(weights))
	if len(m) != len(weights) {
		t.Fatalf("map length %d", len(m))
	}
	for i := 1; i < len(m); i++ {
		if m[i] < m[i-1] || m[i] > m[i-1]+1 {
			t.Fatalf("shard map not a monotone step function at %d: %v", i, m)
		}
	}
	for s := 0; s+1 < len(bounds); s++ {
		for i := bounds[s]; i < bounds[s+1]; i++ {
			if m[i] != int32(s) {
				t.Fatalf("entity %d mapped to %d, bounds say %d", i, m[i], s)
			}
		}
	}
}
