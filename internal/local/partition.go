package local

// Partition splits the entities 0..len(weights)-1 into at most shards
// contiguous blocks of near-equal total weight, and returns the block
// boundaries: block s is the half-open range [bounds[s], bounds[s+1]).
//
// Contiguous blocks keep each worker's entities dense in memory (protocol
// state, inboxes, and counters of one shard share cache lines) and make the
// entity→shard map a monotone step function. Weights are per-entity work
// estimates (degree-proportional for LOCAL protocols, since both Send and
// Receive touch every port); a zero-weight entity still costs one unit of
// scheduling, so callers should use degree+1.
//
// Every block is non-empty: when shards exceeds the entity count, the count
// of blocks is clamped. len(bounds)-1 is the effective shard count. With no
// entities at all the result is a single empty block.
func Partition(weights []int, shards int) []int {
	n := len(weights)
	if n == 0 {
		return []int{0, 0}
	}
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	var total int64
	for _, w := range weights {
		total += int64(w)
	}
	bounds := make([]int, shards+1)
	i := 0
	var cum int64
	for s := 0; s < shards; s++ {
		bounds[s] = i
		// The block ends at the first entity where the cumulative weight
		// reaches the s-th equal share — but it always takes at least one
		// entity and leaves at least one per remaining block.
		target := total * int64(s+1) / int64(shards)
		maxEnd := n - (shards - s - 1)
		cum += int64(weights[i])
		end := i + 1
		for end < maxEnd && cum < target {
			cum += int64(weights[end])
			end++
		}
		i = end
	}
	bounds[shards] = n
	return bounds
}

// shardMap expands block boundaries into a dense entity→shard lookup table,
// the form the delivery hot path wants (one array read per message).
func shardMap(bounds []int, n int) []int32 {
	m := make([]int32, n)
	for s := 0; s+1 < len(bounds); s++ {
		for i := bounds[s]; i < bounds[s+1]; i++ {
			m[i] = int32(s)
		}
	}
	return m
}
