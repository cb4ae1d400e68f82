package sharded

import (
	"sync"
	"time"

	"github.com/distec/distec/internal/local"
)

// runState is the cross-shard state of one execution: the first error,
// which any shard's task may record.
type runState struct {
	errMu     sync.Mutex
	err       error
	errEntity int // lowest-index entity that reported err, for determinism
}

// recordErr keeps the error of the lowest-index reporting entity so the
// engine's error is deterministic regardless of worker interleaving.
// entity −1 flags engine-level errors (round limit), which win outright.
func (st *runState) recordErr(entity int, err error) {
	st.errMu.Lock()
	if st.err == nil || entity < st.errEntity {
		st.err, st.errEntity = err, entity
	}
	st.errMu.Unlock()
}

func (st *runState) getErr() error {
	st.errMu.Lock()
	defer st.errMu.Unlock()
	return st.err
}

// worker owns one contiguous block of entities — a local.Block, the
// sequential engine's own, which holds their protocols, visit schedule and
// inboxes and runs both phases of a round — and the outbox batches their
// messages to other shards fill. Within a phase only the shard's own task
// mutates its fields; cross-shard data flows only through outbox batches
// and the owned cells of the run's broadcast store, read strictly after
// the send barrier.
type worker struct {
	id      int
	blk     *local.Block
	shardOf []int32
	out     outbox[delivery]
	arrive  outbox[int32] // broadcast arrivals in other shards, by entity

	sent int64
	// visits counts the entities the receive phases examined.
	visits int64

	// Per-round trace counters: receivePhase records the entities that had
	// a delivery and the entities that halted, and traced phase tasks add
	// their wall time to busy; Exec.Round reads them after the round.
	rReceived int
	rHalted   int
	busy      time.Duration
}

// newWorker builds shard id of the partition bounds.
func newWorker(id int, bounds []int, shardOf []int32, t *local.Topology, f local.Factory) *worker {
	shards := len(bounds) - 1
	return &worker{
		id:      id,
		blk:     local.NewBlock(t, f, bounds[id], bounds[id+1]),
		shardOf: shardOf,
		out:     newOutbox[delivery](shards),
		arrive:  newOutbox[int32](shards),
	}
}

// sendPhase starts round r on the worker's block and runs its send phase;
// what it addresses to other shards lands in the outbox batches (the
// worker is the block's local.Away). A malformed message vector is
// recorded as the run's error.
//
//distec:hotpath
func (w *worker) sendPhase(r int, t *local.Topology, st *runState, sent local.Store) {
	w.out.reset()
	w.arrive.reset()
	if !w.blk.Start(r) {
		return
	}
	msgs, bad, err := w.blk.Send(r, t, sent, w)
	w.sent += msgs
	if err != nil {
		st.recordErr(bad, err)
	}
}

// Arrive batches a broadcast's arrival at entity j of another shard.
//
//distec:hotpath
func (w *worker) Arrive(j int32) { w.arrive.put(w.shardOf[j], j) }

// Deliver batches msg for port port of entity j of another shard.
//
//distec:hotpath
func (w *worker) Deliver(j, port int32, msg local.Message) {
	w.out.put(w.shardOf[j], delivery{to: j, port: port, msg: msg})
}

// receivePhase hands the worker's block what the other shards' send
// phases addressed to it, then runs the block's receive phase — the same
// code the sequential engine runs, so results stay bit-identical.
//
//distec:hotpath
func (w *worker) receivePhase(r int, t *local.Topology, sent local.Store, workers []*worker) {
	b := w.blk
	for _, src := range workers {
		for _, j := range src.arrive.buf[w.id] {
			b.Arrive(j)
		}
		for _, d := range src.out.buf[w.id] {
			b.Deliver(d.to, d.port, d.msg)
		}
	}
	visited, received, halted := b.Receive(r, t, sent)
	w.visits += int64(visited)
	w.rReceived, w.rHalted = received, halted
}
