package local

import (
	"math"
	"math/bits"
)

// Block is the share of a run's entities that one round loop drives — all
// of them for the sequential engine, one shard's contiguous range for the
// sharded engine. It owns their protocols and decides which of them a
// round visits.
//
// A round visits the entities that are due — the awake ones, and the
// sleepers whose wake round it is — plus those a message reached, in
// ascending entity order. Sleepers are filed under their wake round in a
// ring of intrusive lists (rounds beyond the ring's horizon wait in one
// overflow list), so filing, moving and waking an entity are O(1), and a
// round with nothing due and nothing sent costs O(1). Steady-state rounds
// allocate nothing.
type Block struct {
	lo int
	// Procs are the entities' protocols, by index within the block; Bcast
	// holds the same values as Broadcasters on the broadcast path and is
	// nil otherwise.
	Procs    []Protocol
	Bcast    []Broadcaster
	sparse   []SparseReceiver
	sleepers []Sleeper

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

// maxRing caps the ring of wake lists; sleepers filed further ahead wait
// in the overflow list, which is re-examined once per lap of the ring.
const maxRing = 1 << 16

// NewBlock builds the protocols of entities lo..hi−1 of t with f. Every
// entity starts awake, so round 1 visits all of them.
func NewBlock(t *Topology, f Factory, lo, hi int) *Block {
	n := hi - lo
	words := (n + 63) / 64
	b := &Block{
		lo:       lo,
		Procs:    make([]Protocol, n),
		sparse:   make([]SparseReceiver, n),
		sleepers: make([]Sleeper, n),
		live:     make([]uint64, words),
		due:      make([]uint64, words),
		got:      make([]uint64, words),
		nLive:    n,
		nDue:     n,
		wake:     make([]int32, n),
		far:      -1,
	}
	for li := range b.Procs {
		p := f(t.ViewOf(lo + li))
		b.Procs[li] = p
		if sr, ok := p.(SparseReceiver); ok {
			b.sparse[li] = sr
		}
		if sl, ok := p.(Sleeper); ok {
			b.sleepers[li] = sl
		}
	}
	for k := range b.live {
		b.live[k] = math.MaxUint64
	}
	if tail := n % 64; tail != 0 {
		b.live[words-1] = 1<<tail - 1
	}
	copy(b.due, b.live)
	b.Bcast = Broadcasters(b.Procs)
	return b
}

// Live returns the number of unhalted entities.
func (b *Block) Live() int { return b.nLive }

// Start begins round r: the sleepers filed for r become due. It reports
// whether any entity is due, that is whether the send phase has anything
// to visit.
func (b *Block) Start(r int) bool {
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

// Due returns the bitmap of the entities the current round's send phase
// visits: bit j of word k is the block's entity 64k+j.
func (b *Block) Due() []uint64 { return b.due }

// Reach records that a message reached the block's entity li this round.
func (b *Block) Reach(li int) {
	b.got[li>>6] |= 1 << (li & 63)
	b.anyGot = true
}

// Receive runs round r's receive phase over the due entities and those a
// message reached, in ascending order: ReceiveNone for a SparseReceiver
// that got nothing, ReceiveBroadcast (reading sent through t's ports) on
// the broadcast path, Receive with inbox[li] otherwise. A survivor that is
// a Sleeper is asked for its next wake and filed under it. It returns the
// entities visited, those among them that had a delivery, and those that
// halted.
//
//distec:hotpath
func (b *Block) Receive(r int, t *Topology, sent Store, inbox [][]Message) (visited, received, halted int) {
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
			var done bool
			if got&bit != 0 {
				received++
			}
			if got&bit == 0 && b.sparse[li] != nil {
				done = b.sparse[li].ReceiveNone(r)
			} else if b.Bcast != nil {
				done = b.Bcast[li].ReceiveBroadcast(r, sent.Received(t.Ports[b.lo+li], r))
			} else {
				done = b.Procs[li].Receive(r, inbox[li])
			}
			switch {
			case done:
				b.unfile(int32(li))
				b.live[k] &^= bit
				due &^= bit
				b.nLive--
				halted++
			case b.sleepers[li] != nil:
				if w := b.sleepers[li].NextWake(r); w > r+1 {
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
func (b *Block) sleep(li int32, w, r int) {
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
func (b *Block) unfile(li int32) {
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
func (b *Block) link(li int32, r int) {
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
func (b *Block) grow(d, r int) {
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
func (b *Block) refile(li int32, r int) {
	for li >= 0 {
		nx := b.next[li]
		b.link(li, r)
		li = nx
	}
}
