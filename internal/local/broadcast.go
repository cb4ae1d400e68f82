package local

// Broadcaster is an optional fast path for protocols whose round message is
// one int sent on every port — Linial's color reduction, the greedy base,
// the randomized trials and the distributed check. When every entity of a
// run is a Broadcaster, both engines store each broadcast once per entity
// per round instead of one boxed Message per port, and a receiver reads its
// neighbors' values through its own ports (Broadcasts), so it still sees
// only what its ports carry.
//
// The semantics are the per-port ones: Broadcast(r) returning (v, true) is
// Send(r) returning v on every port — one message per port, so Stats grows
// by the degree — and ok == false is a nil Send. A halted or sleeping entity
// sends nothing, a broadcast wakes a sleeping neighbor, and ReceiveNone (for
// a Sleeper) runs instead of ReceiveBroadcast when no neighbor sent.
//
// A Broadcaster's Send and Receive are SendPerPort and ReceivePerPort, so
// its logic exists once and the engines may call either form.
type Broadcaster interface {
	Protocol
	// Broadcast returns the value sent on every port in round r; ok ==
	// false sends nothing.
	Broadcast(r int) (v int, ok bool)
	// ReceiveBroadcast consumes the values delivered in round r and
	// reports whether the entity halts.
	ReceiveBroadcast(r int, in Broadcasts) (done bool)
}

// Broadcasts is what one entity received in one round of a broadcast run.
// It is valid only during the ReceiveBroadcast call it was passed to.
type Broadcasts struct {
	ports []int32   // the receiver's ports: Topology.Ports[i]
	cells []stamped // the run's broadcast store, by entity
	r     int
}

// stamped is one entity's broadcast value and the round it was sent in.
type stamped struct {
	v int
	r int
}

// Len returns the receiver's number of ports.
func (b Broadcasts) Len() int { return len(b.ports) }

// At returns the value the neighbor on port p broadcast this round;
// sent is false when that neighbor sent nothing (it slept, declined, or
// halted in an earlier round).
func (b Broadcasts) At(p int) (v int, sent bool) {
	c := b.cells[b.ports[p]]
	if c.r != b.r {
		return 0, false
	}
	return c.v, true
}

// store is an execution's broadcast store: one value per entity with the
// round it was broadcast in. The zero store is empty; an Exec builds one
// only for runs whose every entity is a Broadcaster.
type store struct{ cells []stamped }

// newStore returns the broadcast store of an n-entity run.
func newStore(n int) store { return store{cells: make([]stamped, n)} }

// put records entity i's round-r broadcast.
func (s store) put(i, r, v int) { s.cells[i] = stamped{v: v, r: r} }

// received is the round-r view of the entity whose ports are ports.
func (s store) received(ports []int32, r int) Broadcasts {
	return Broadcasts{ports: ports, cells: s.cells, r: r}
}

// SendPerPort is a Broadcaster's Send: its round-r broadcast on each of its
// degree ports, or nil when it sends nothing.
func SendPerPort(b Broadcaster, r, degree int) []Message {
	v, ok := b.Broadcast(r)
	if !ok {
		return nil
	}
	out := make([]Message, degree)
	for p := range out {
		out[p] = v
	}
	return out
}

// ReceivePerPort is a Broadcaster's Receive: it hands the port-indexed
// inbox to ReceiveBroadcast.
func ReceivePerPort(b Broadcaster, r int, inbox []Message) bool {
	ports := make([]int32, len(inbox))
	s := newStore(len(inbox))
	for p, m := range inbox {
		ports[p] = int32(p)
		if m != nil {
			s.put(p, r, m.(int))
		}
	}
	return b.ReceiveBroadcast(r, s.received(ports, r))
}
