package sharded

import "github.com/distec/distec/internal/local"

// delivery is one message batched for handoff between shards: the
// destination entity, the destination port, and the payload. Batching
// makes a message one slice append, and the batch is handed over wholesale
// at the send barrier.
type delivery struct {
	to   int32
	port int32
	msg  local.Message
}

// outbox is the double-buffered mail of one source shard: buf[par][dst] is
// the batch this shard produced for destination shard dst in rounds of
// parity par. A per-port run batches deliveries; a broadcast run batches
// only the IDs of the entities its broadcasts reach in other shards (the
// values themselves sit in the run's parity-par local.Store), so no
// pointer crosses shards for a broadcast.
//
// A buffer of parity p written in round r is read by the destination worker
// after the send barrier and reused (truncated, capacity retained) in round
// r+2, so steady-state rounds allocate nothing. Strictly, the current round
// structure would admit a single buffer — the halt-detection barrier at the
// end of every round already separates the last read of round r from the
// reset in round r+1 — but the parity scheme keeps the mailbox's safety
// independent of that barrier: it only relies on the send barrier, so halt
// detection can later be relaxed (e.g. lagged or tree-reduced) without
// touching message-passing correctness. The broadcast stores are
// double-buffered by parity for the same reason.
type outbox[T any] struct {
	buf [2][][]T
}

func newOutbox[T any](shards int) outbox[T] {
	var ob outbox[T]
	ob.buf[0] = make([][]T, shards)
	ob.buf[1] = make([][]T, shards)
	return ob
}

// reset truncates the parity-par batches for reuse, keeping capacity.
func (ob *outbox[T]) reset(par int) {
	for d := range ob.buf[par] {
		ob.buf[par][d] = ob.buf[par][d][:0]
	}
}

// put appends one item to the parity-par batch for shard dst.
//
//distec:hotpath
func (ob *outbox[T]) put(par int, dst int32, d T) {
	ob.buf[par][dst] = append(ob.buf[par][dst], d)
}

// batch returns the parity-par batch destined for shard dst.
func (ob *outbox[T]) batch(par int, dst int) []T {
	return ob.buf[par][dst]
}
