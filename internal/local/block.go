package local

import (
	"fmt"
	"math"
	"math/bits"
)

// block is the share of a run's entities that one worker drives — all of
// them in a one-block execution (the sequential engine), one shard's
// contiguous range otherwise. It owns their protocols and per-port
// inboxes, decides which of them a round visits, and runs a round over
// them: start, send, then receive. A message for an entity outside the
// block goes into its worker's outbox batch for the receiver's shard,
// whose block takes it in (arrive, deliver) between the two phases.
//
// A round visits the entities that are due — the awake ones, and the
// sleepers whose wake round it is — plus those a message reached, in
// ascending entity order. Sleepers are filed under their wake round in a
// ring of intrusive lists (rounds beyond the ring's horizon wait in one
// overflow list), so filing, moving and waking an entity are O(1), and a
// round with nothing due and nothing sent costs O(1). Each entity has one
// inbox, cleared sparsely when the next round starts: a round's receive
// phase ends before the next send phase begins.
// Steady-state rounds allocate nothing.
type block struct {
	lo int
	// procs are the entities' protocols, by index within the block; bcast
	// holds the same values as Broadcasters on the broadcast path and is
	// nil otherwise; sleepers[li] is procs[li] as a Sleeper, or nil.
	procs    []Protocol
	bcast    []Broadcaster
	sleepers []Sleeper

	// inbox[li][p] is what entity li received on port p this round (per-port
	// path only); touched lists the cells written, for the next round to
	// clear.
	inbox   [][]Message
	touched []slot

	// live, due and got are bitmaps over the block: unhalted entities,
	// entities the current round's send phase visits, and entities a
	// message reached this round.
	live, due, got []uint64
	nLive, nDue    int
	anyGot         bool

	// wake[li] is the round entity li sleeps until while it is filed, and
	// 0 otherwise. A filed entity sits in exactly one list:
	// ring[w&(len(ring)-1)] for wake rounds within the ring's horizon, far
	// beyond it. next and prev link the lists; −1 ends them.
	wake       []int32
	ring       []int32
	far        int32
	next, prev []int32
}

// slot identifies one inbox cell, by entity within the block and port.
type slot struct {
	entity int32
	port   int32
}

// maxRing caps the ring of wake lists; sleepers filed further ahead wait
// in the overflow list, which is re-examined once per lap of the ring.
const maxRing = 1 << 16

// newBlock builds the protocols of entities lo..hi−1 of t with f. Every
// entity starts awake, so round 1 visits all of them. The block is on the
// broadcast path when every entity is a Broadcaster; the Exec calls
// usePorts when the run as a whole is not.
func newBlock(t *Topology, f Factory, lo, hi int) block {
	n := hi - lo
	words := (n + 63) / 64
	b := block{
		lo:       lo,
		procs:    make([]Protocol, n),
		bcast:    make([]Broadcaster, n),
		sleepers: make([]Sleeper, n),
		live:     make([]uint64, words),
		due:      make([]uint64, words),
		got:      make([]uint64, words),
		nLive:    n,
		nDue:     n,
		wake:     make([]int32, n),
		far:      -1,
	}
	for li := range b.procs {
		p := f(t.ViewOf(lo + li))
		b.procs[li] = p
		if bc, ok := p.(Broadcaster); ok && b.bcast != nil {
			b.bcast[li] = bc
		} else {
			b.bcast = nil
		}
		b.sleepers[li], _ = p.(Sleeper)
	}
	for k := range b.live {
		b.live[k] = math.MaxUint64
	}
	if tail := n % 64; tail != 0 {
		b.live[words-1] = 1<<tail - 1
	}
	copy(b.due, b.live)
	return b
}

// broadcasting reports whether the block is on the broadcast path.
func (b *block) broadcasting() bool { return b.bcast != nil }

// usePorts puts the block on the per-port path: it drops the broadcasters
// and builds each entity's inbox.
func (b *block) usePorts(t *Topology) {
	b.bcast = nil
	b.inbox = make([][]Message, len(b.procs))
	for li := range b.inbox {
		b.inbox[li] = make([]Message, len(t.Ports[b.lo+li]))
	}
}

// start begins round r: last round's inbox cells are cleared and the
// sleepers filed for r become due. It reports whether any entity is due,
// that is whether send has anything to visit.
func (b *block) start(r int) bool {
	for _, s := range b.touched {
		b.inbox[s.entity][s.port] = nil
	}
	b.touched = b.touched[:0]
	b.anyGot = false
	if b.ring != nil {
		mask := len(b.ring) - 1
		if r&mask == 0 && b.far >= 0 {
			// Once per lap, pull the overflow sleepers due within it.
			li := b.far
			b.far = -1
			b.refile(li, r)
		}
		s := &b.ring[r&mask]
		for li := *s; li >= 0; li = b.next[li] {
			b.wake[li] = 0
			b.due[li>>6] |= 1 << (li & 63)
			b.nDue++
		}
		*s = -1
	}
	return b.nDue > 0
}

// send runs round r's send phase, after start, over the due entities in
// ascending order. A broadcast goes into sent, and a per-port message into
// its receiver's inbox; for a receiver outside the block, the arrival or
// the message goes into w's outbox batch for the receiver's shard. It
// returns the messages sent and, when an entity sent a vector whose length
// is not its degree, that entity and the error, at which the phase stops.
//
//distec:hotpath
func (b *block) send(r int, t *Topology, sent store, w *worker) (msgs int64, bad int, err error) {
	lo, n, got := b.lo, uint(len(b.procs)), b.got
	for k, word := range b.due {
		for ; word != 0; word &= word - 1 {
			li := k<<6 | bits.TrailingZeros64(word)
			i := lo + li
			if b.bcast != nil {
				v, ok := b.bcast[li].Broadcast(r)
				if !ok {
					continue
				}
				sent.put(i, r, v)
				ports := t.Ports[i]
				for _, j := range ports {
					// The sender is due, so receive visits this block
					// anyway: an arrival here needs its bit, not anyGot.
					if lj := int(j) - lo; uint(lj) < n {
						got[lj>>6] |= 1 << (lj & 63)
					} else {
						w.arrive.put(w.shardOf[j], j)
					}
				}
				msgs += int64(len(ports))
				continue
			}
			out := b.procs[li].Send(r)
			if out == nil {
				continue
			}
			ports := t.Ports[i]
			if len(out) != len(ports) {
				return msgs, i, fmt.Errorf("local: entity %d sent %d messages, has %d ports", i, len(out), len(ports))
			}
			for p, msg := range out {
				if msg == nil {
					continue
				}
				if j, back := ports[p], t.Back[i][p]; uint(int(j)-lo) < n {
					b.deliver(j, back, msg)
				} else {
					w.out.put(w.shardOf[j], delivery{to: j, port: back, msg: msg})
				}
				msgs++
			}
		}
	}
	return msgs, 0, nil
}

// arrive records that a message reached the block's entity j this round.
func (b *block) arrive(j int32) {
	li := int(j) - b.lo
	b.got[li>>6] |= 1 << (li & 63)
	b.anyGot = true
}

// deliver puts msg into port port of the block's entity j for this round.
func (b *block) deliver(j, port int32, msg Message) {
	li := int(j) - b.lo
	b.inbox[li][port] = msg
	b.touched = append(b.touched, slot{entity: int32(li), port: port})
	b.arrive(j)
}

// receive runs round r's receive phase over the due entities and those a
// message reached, in ascending order: ReceiveNone for a Sleeper that got
// nothing, ReceiveBroadcast (reading sent through t's ports) on the
// broadcast path, Receive with the entity's inbox otherwise. A survivor
// that is a Sleeper is asked for its next wake and filed under it. It
// returns the entities visited, those among them that had a delivery, and
// those that halted.
//
//distec:hotpath
func (b *block) receive(r int, t *Topology, sent store) (visited, received, halted int) {
	if b.nDue == 0 && !b.anyGot {
		return 0, 0, 0
	}
	for k, due := range b.due {
		got := b.got[k]
		if got != 0 {
			b.got[k] = 0
			got &= b.live[k]
		}
		word := due | got
		if word == 0 {
			continue
		}
		visited += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			bit := word & -word
			li := k<<6 | bits.TrailingZeros64(word)
			sl := b.sleepers[li]
			var done bool
			if got&bit != 0 {
				received++
			}
			if got&bit == 0 && sl != nil {
				done = sl.ReceiveNone(r)
			} else if b.bcast != nil {
				done = b.bcast[li].ReceiveBroadcast(r, sent.received(t.Ports[b.lo+li], r))
			} else {
				done = b.procs[li].Receive(r, b.inbox[li])
			}
			switch {
			case done:
				b.unfile(int32(li))
				b.live[k] &^= bit
				due &^= bit
				b.nLive--
				halted++
			case sl != nil:
				if w := sl.NextWake(r); w > r+1 {
					b.sleep(int32(li), min(w, math.MaxInt32), r)
					due &^= bit
				} else {
					b.unfile(int32(li))
					due |= bit
				}
			}
		}
		b.nDue += bits.OnesCount64(due) - bits.OnesCount64(b.due[k])
		b.due[k] = due
	}
	return visited, received, halted
}

// sleep files entity li until round w > r+1, unless it already is.
func (b *block) sleep(li int32, w, r int) {
	if int(b.wake[li]) == w {
		return
	}
	b.unfile(li)
	b.wake[li] = int32(w)
	if b.next == nil {
		b.next = make([]int32, len(b.wake))
		b.prev = make([]int32, len(b.wake))
	}
	if w-r >= len(b.ring) && len(b.ring) < maxRing {
		b.grow(w-r, r)
	}
	b.link(li, r)
}

// unfile takes entity li off its wake list, if it is on one.
func (b *block) unfile(li int32) {
	if b.wake[li] == 0 {
		return
	}
	p, nx := b.prev[li], b.next[li]
	if nx >= 0 {
		b.prev[nx] = p
	}
	switch {
	case p >= 0:
		b.next[p] = nx
	case b.ring[int(b.wake[li])&(len(b.ring)-1)] == li:
		b.ring[int(b.wake[li])&(len(b.ring)-1)] = nx
	default:
		b.far = nx
	}
	b.wake[li] = 0
}

// link pushes the filed entity li onto the list of its wake round, seen
// from round r: its ring slot when within the horizon, far otherwise.
func (b *block) link(li int32, r int) {
	w := int(b.wake[li])
	head := &b.far
	if w-r < len(b.ring) {
		head = &b.ring[w&(len(b.ring)-1)]
	}
	b.prev[li], b.next[li] = -1, *head
	if *head >= 0 {
		b.prev[*head] = li
	}
	*head = li
}

// grow widens the ring to cover d rounds ahead of round r (within maxRing)
// and refiles every sleeper, pulling overflow entries into the ring.
func (b *block) grow(d, r int) {
	size := 64
	for size <= d && size < maxRing {
		size <<= 1
	}
	heads := append(b.ring[:len(b.ring):len(b.ring)], b.far)
	b.ring = make([]int32, size)
	for s := range b.ring {
		b.ring[s] = -1
	}
	b.far = -1
	for _, li := range heads {
		b.refile(li, r)
	}
}

// refile links every entity of the list headed by li again, seen from
// round r.
func (b *block) refile(li int32, r int) {
	for li >= 0 {
		nx := b.next[li]
		b.link(li, r)
		li = nx
	}
}
