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

// outbox is the mail of one source shard: buf[dst] is the batch this
// shard produced for destination shard dst in the current round. A
// per-port run batches deliveries; a broadcast run batches only the IDs of
// the entities its broadcasts reach in other shards (the values themselves
// sit in the run's local.Store), so no pointer crosses shards for a
// broadcast. Messages between entities of one shard never enter a batch:
// the shard's block delivers them itself.
//
// A batch written in round r's send phase is read by its destination's
// receive phase and truncated (capacity retained) at the start of the
// source's send phase in round r+1, so steady-state rounds allocate
// nothing. One buffer is safe: Exec.Round's second each waits for every
// receive task, on Engine.Run and on the pool's lanes alike, so the last
// read of a batch, a store cell or an inbox in round r happens before its
// reuse in round r+1.
type outbox[T any] struct {
	buf [][]T
}

func newOutbox[T any](shards int) outbox[T] {
	return outbox[T]{buf: make([][]T, shards)}
}

// reset truncates the batches for reuse, keeping capacity.
func (ob *outbox[T]) reset() {
	for d := range ob.buf {
		ob.buf[d] = ob.buf[d][:0]
	}
}

// put appends one item to the batch for shard dst.
//
//distec:hotpath
func (ob *outbox[T]) put(dst int32, d T) {
	ob.buf[dst] = append(ob.buf[dst], d)
}
