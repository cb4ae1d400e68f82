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
// the batch of messages this shard produced for destination shard dst in
// rounds of parity par.
//
// A buffer of parity p written in round r is read by the destination worker
// after the send barrier and reused (truncated, capacity retained) in round
// r+2, so steady-state rounds allocate nothing. Strictly, the current round
// structure would admit a single buffer — the halt-detection barrier at the
// end of every round already separates the last read of round r from the
// reset in round r+1 — but the parity scheme keeps the mailbox's safety
// independent of that barrier: it only relies on the send barrier, so halt
// detection can later be relaxed (e.g. lagged or tree-reduced) without
// touching message-passing correctness.
type outbox struct {
	buf [2][][]delivery
}

func newOutbox(shards int) outbox {
	var ob outbox
	ob.buf[0] = make([][]delivery, shards)
	ob.buf[1] = make([][]delivery, shards)
	return ob
}

// reset truncates the parity-par batches for reuse, keeping capacity.
func (ob *outbox) reset(par int) {
	for d := range ob.buf[par] {
		ob.buf[par][d] = ob.buf[par][d][:0]
	}
}

// put appends one message to the parity-par batch for shard dst.
//
//distec:hotpath
func (ob *outbox) put(par int, dst int32, d delivery) {
	ob.buf[par][dst] = append(ob.buf[par][dst], d)
}

// batch returns the parity-par batch destined for shard dst.
func (ob *outbox) batch(par int, dst int) []delivery {
	return ob.buf[par][dst]
}
