package local

import "time"

// worker drives one shard of an Exec: its block of entities — all of them
// in a one-block execution — which holds their protocols, visit schedule
// and inboxes and runs both phases of a round, and the outbox batches that
// carry their messages to other shards. Within a phase only the shard's
// own task mutates its fields; cross-shard data flows only through outbox
// batches and the owned cells of the run's broadcast store, read strictly
// after the send barrier.
type worker struct {
	x       *Exec
	id      int
	blk     block
	shardOf []int32
	out     outbox[delivery]
	arrive  outbox[int32] // broadcast arrivals in other shards, by entity

	sent int64
	// visits counts the entities the receive phases examined.
	visits int64

	// Per-round trace counters: receivePhase records the entities that had
	// a delivery and the entities that halted, and timed phases add their
	// wall time to busy; Exec.Round reads them after the round.
	rReceived int
	rHalted   int
	busy      time.Duration
}

// sendPhase starts round x.r on the worker's block and runs its send
// phase; what it addresses to other shards lands in the outbox batches. A
// malformed message vector is recorded as the run's error.
//
//distec:hotpath
func (w *worker) sendPhase() {
	x := w.x
	var start time.Time
	if x.timed {
		start = time.Now()
	}
	w.out.reset()
	w.arrive.reset()
	if w.blk.start(x.r) {
		msgs, bad, err := w.blk.send(x.r, x.t, x.sent, w)
		w.sent += msgs
		if err != nil {
			x.st.recordErr(bad, err)
		}
	}
	if x.timed {
		w.busy += time.Since(start)
	}
}

// receivePhase hands the worker's block what the other shards' send
// phases addressed to it (its own messages went straight into the block),
// then runs the block's receive phase.
//
//distec:hotpath
func (w *worker) receivePhase() {
	x := w.x
	var start time.Time
	if x.timed {
		start = time.Now()
	}
	b := &w.blk
	for _, src := range x.workers {
		if src == w {
			continue
		}
		for _, j := range src.arrive.buf[w.id] {
			b.arrive(j)
		}
		for _, d := range src.out.buf[w.id] {
			b.deliver(d.to, d.port, d.msg)
		}
	}
	visited, received, halted := b.receive(x.r, x.t, x.sent)
	w.visits += int64(visited)
	w.rReceived, w.rHalted = received, halted
	if x.timed {
		w.busy += time.Since(start)
	}
}
