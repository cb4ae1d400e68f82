package sharded

import (
	"fmt"
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

// worker owns one contiguous block of entities: their protocol state, their
// double-buffered inboxes (per-port runs only), and the outbox batches they
// produce. Within a phase only the shard's own task mutates its fields;
// cross-shard data flows only through outbox batches and the owned cells of
// the run's broadcast stores, read strictly after the send barrier.
type worker struct {
	id     int
	lo, hi int // owned entity range [lo, hi)

	procs    []local.Protocol
	bcast    []local.Broadcaster // non-nil on the broadcast path
	sparse   []local.SparseReceiver
	sleepers []local.Sleeper

	active  []int32 // still-active owned entities, ascending
	wake    []int   // shard-local: round before which the entity sleeps
	gotMsg  []int32 // shard-local: deliveries this round
	inbox   [2][][]local.Message
	touched [2][]slot
	out     outbox[delivery]
	arrive  outbox[int32] // broadcast arrivals in other shards, by entity

	sent int64

	// Per-round trace counters: receivePhase records the entities that had
	// a delivery and the entities that halted, and traced phase tasks add
	// their wall time to busy; Exec.Round reads them after the round.
	rReceived int
	rHalted   int
	busy      time.Duration
}

func newWorker(id, lo, hi, shards int, t *local.Topology, f local.Factory) *worker {
	n := hi - lo
	w := &worker{
		id:       id,
		lo:       lo,
		hi:       hi,
		procs:    make([]local.Protocol, n),
		sparse:   make([]local.SparseReceiver, n),
		sleepers: make([]local.Sleeper, n),
		active:   make([]int32, n),
		wake:     make([]int, n),
		gotMsg:   make([]int32, n),
		out:      newOutbox[delivery](shards),
		arrive:   newOutbox[int32](shards),
	}
	for li := 0; li < n; li++ {
		i := lo + li
		w.procs[li] = f(t.ViewOf(i))
		if sr, ok := w.procs[li].(local.SparseReceiver); ok {
			w.sparse[li] = sr
		}
		if sl, ok := w.procs[li].(local.Sleeper); ok {
			w.sleepers[li] = sl
		}
		w.active[li] = int32(i)
	}
	w.bcast = local.Broadcasters(w.procs)
	return w
}

// usePorts puts the worker on the per-port path: it drops its broadcasters
// and builds its entities' double-buffered inboxes.
func (w *worker) usePorts(t *local.Topology) {
	w.bcast = nil
	n := w.hi - w.lo
	w.inbox[0] = make([][]local.Message, n)
	w.inbox[1] = make([][]local.Message, n)
	for li := 0; li < n; li++ {
		deg := len(t.Ports[w.lo+li])
		w.inbox[0][li] = make([]local.Message, deg)
		w.inbox[1][li] = make([]local.Message, deg)
	}
}

// sendPhase runs Send for every awake owned entity and batches the output
// into the parity-par outbox buffers by destination shard. On the broadcast
// path it writes the entity's value into sent, counts arrivals at owned
// neighbors directly and batches the other neighbors' IDs.
//
//distec:hotpath
func (w *worker) sendPhase(r, par int, t *local.Topology, shardOf []int32, st *runState, sent local.Store) {
	w.out.reset(par)
	w.arrive.reset(par)
	for _, i32 := range w.active {
		i := int(i32)
		if w.wake[i-w.lo] > r {
			continue
		}
		if w.bcast != nil {
			if v, ok := w.bcast[i-w.lo].Broadcast(r); ok {
				sent.Put(i, r, v)
				for _, j := range t.Ports[i] {
					if d := shardOf[j]; int(d) == w.id {
						w.gotMsg[int(j)-w.lo]++
					} else {
						w.arrive.put(par, d, j)
					}
				}
				w.sent += int64(len(t.Ports[i]))
			}
			continue
		}
		out := w.procs[i-w.lo].Send(r)
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

// deliverPhase drains the parity-par batches addressed to this shard from
// every source worker into the owned entities' parity-par inboxes and
// arrival counts. Stale slots from the buffer's previous use (round r−2)
// are cleared sparsely first, exactly like the sequential engine.
//
//distec:hotpath
func (w *worker) deliverPhase(par int, workers []*worker) {
	for _, src := range workers {
		for _, j := range src.arrive.batch(par, w.id) {
			w.gotMsg[int(j)-w.lo]++
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
			w.gotMsg[li]++
			tb = append(tb, slot{ent: li, port: d.port})
		}
	}
	w.touched[par] = tb
}

// receivePhase runs Receive/ReceiveBroadcast/ReceiveNone for the owned
// entities and compacts the active list, preserving ascending order. The
// sleep/sparse logic is a line-for-line mirror of local.SeqExec.Round so
// results stay bit-identical.
//
//distec:hotpath
func (w *worker) receivePhase(r, par int, t *local.Topology, sent local.Store) {
	keep := w.active[:0]
	received := 0
	before := len(w.active)
	for _, i32 := range w.active {
		li := int(i32) - w.lo
		got := w.gotMsg[li]
		w.gotMsg[li] = 0
		if w.wake[li] > r && got == 0 {
			keep = append(keep, i32)
			continue
		}
		if got != 0 {
			received++
		}
		var done bool
		if got == 0 && w.sparse[li] != nil {
			done = w.sparse[li].ReceiveNone(r)
			if !done && w.sleepers[li] != nil {
				w.wake[li] = w.sleepers[li].NextWake(r)
			}
		} else {
			if w.bcast != nil {
				done = w.bcast[li].ReceiveBroadcast(r, sent.Received(t.Ports[i32], r))
			} else {
				done = w.procs[li].Receive(r, w.inbox[par][li])
			}
			w.wake[li] = 0
		}
		if !done {
			keep = append(keep, i32)
		}
	}
	w.active = keep
	w.rReceived, w.rHalted = received, before-len(keep)
}
