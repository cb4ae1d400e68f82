package sharded

import (
	"fmt"
	"math/bits"
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

// slot marks one written inbox cell (shard-local entity index + port) for
// sparse clearing, mirroring the sequential engine's touched lists.
type slot struct {
	ent  int32
	port int32
}

// worker owns one contiguous block of entities: their protocols and visit
// schedule (a local.Block, the sequential engine's own), their
// double-buffered inboxes (per-port runs only), and the outbox batches they
// produce. Within a phase only the shard's own task mutates its fields;
// cross-shard data flows only through outbox batches and the owned cells of
// the run's broadcast stores, read strictly after the send barrier.
type worker struct {
	id     int
	lo, hi int // owned entity range [lo, hi)

	blk     *local.Block
	inbox   [2][][]local.Message
	touched [2][]slot
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

func newWorker(id, lo, hi, shards int, t *local.Topology, f local.Factory) *worker {
	return &worker{
		id:     id,
		lo:     lo,
		hi:     hi,
		blk:    local.NewBlock(t, f, lo, hi),
		out:    newOutbox[delivery](shards),
		arrive: newOutbox[int32](shards),
	}
}

// usePorts puts the worker on the per-port path: it drops its broadcasters
// and builds its entities' double-buffered inboxes.
func (w *worker) usePorts(t *local.Topology) {
	w.blk.Bcast = nil
	n := w.hi - w.lo
	w.inbox[0] = make([][]local.Message, n)
	w.inbox[1] = make([][]local.Message, n)
	for li := 0; li < n; li++ {
		deg := len(t.Ports[w.lo+li])
		w.inbox[0][li] = make([]local.Message, deg)
		w.inbox[1][li] = make([]local.Message, deg)
	}
}

// sendPhase starts round r on the worker's block and runs Send for every
// due owned entity, batching the output into the parity-par outbox buffers
// by destination shard. On the broadcast path it writes the entity's value
// into sent, marks owned neighbors reached directly and batches the other
// neighbors' IDs.
//
//distec:hotpath
func (w *worker) sendPhase(r, par int, t *local.Topology, shardOf []int32, st *runState, sent local.Store) {
	w.out.reset(par)
	w.arrive.reset(par)
	b := w.blk
	if !b.Start(r) {
		return
	}
	for k, word := range b.Due() {
		for ; word != 0; word &= word - 1 {
			li := k<<6 | bits.TrailingZeros64(word)
			i := w.lo + li
			if b.Bcast != nil {
				if v, ok := b.Bcast[li].Broadcast(r); ok {
					sent.Put(i, r, v)
					for _, j := range t.Ports[i] {
						if d := shardOf[j]; int(d) == w.id {
							b.Reach(int(j) - w.lo)
						} else {
							w.arrive.put(par, d, j)
						}
					}
					w.sent += int64(len(t.Ports[i]))
				}
				continue
			}
			out := b.Procs[li].Send(r)
			if out == nil {
				continue
			}
			if len(out) != len(t.Ports[i]) {
				st.recordErr(i, fmt.Errorf("local: entity %d sent %d messages, has %d ports", i, len(out), len(t.Ports[i])))
				return
			}
			for p, msg := range out {
				if msg == nil {
					continue
				}
				j := t.Ports[i][p]
				w.out.put(par, shardOf[j], delivery{to: j, port: t.Back[i][p], msg: msg})
				w.sent++
			}
		}
	}
}

// deliverPhase drains the parity-par batches addressed to this shard from
// every source worker into the owned entities' parity-par inboxes and
// marks their recipients reached. Stale slots from the buffer's previous
// use are cleared sparsely first, exactly like the sequential engine.
//
//distec:hotpath
func (w *worker) deliverPhase(par int, workers []*worker) {
	b := w.blk
	for _, src := range workers {
		for _, j := range src.arrive.batch(par, w.id) {
			b.Reach(int(j) - w.lo)
		}
	}
	tb := w.touched[par]
	for _, s := range tb {
		w.inbox[par][s.ent][s.port] = nil
	}
	tb = tb[:0]
	for _, src := range workers {
		for _, d := range src.out.batch(par, w.id) {
			li := d.to - int32(w.lo)
			w.inbox[par][li][d.port] = d.msg
			b.Reach(int(li))
			tb = append(tb, slot{ent: li, port: d.port})
		}
	}
	w.touched[par] = tb
}

// receivePhase runs the block's receive phase — the same code the
// sequential engine runs, so results stay bit-identical.
//
//distec:hotpath
func (w *worker) receivePhase(r, par int, t *local.Topology, sent local.Store) {
	visited, received, halted := w.blk.Receive(r, t, sent, w.inbox[par])
	w.visits += int64(visited)
	w.rReceived, w.rHalted = received, halted
}
