package local

import (
	"fmt"
	"time"

	"github.com/distec/distec/internal/trace"
)

// SeqExec is the sequential engine's round loop: NewSeqExec builds the
// per-entity state, then each Round call executes one synchronous round
// until it reports completion. Sequential.Run drives it to completion in
// one call; the serving layer instead runs it in bounded time slices
// (Rounds), so a shared worker lane can run a large execution without
// holding the lane for the whole run, at full sequential speed — no
// barriers, no cross-goroutine handoff. Not safe for concurrent use.
//
// A run whose every entity is a Broadcaster keeps one value per entity per
// round in a Store and no inboxes; any other run gets two port-indexed
// inboxes per entity. Inbox buffers are cleared sparsely (only slots written
// in a buffer's previous use) and an entity's arrival count when the receive
// loop visits it, so a round's cost is O(active entities + messages) rather
// than O(total ports) — essential for long, sparse schedules such as the
// one-class-per-round greedy phases.
type SeqExec struct {
	t        *Topology
	opts     *Options
	procs    []Protocol
	bcast    []Broadcaster // non-nil on the broadcast path
	sent     Store
	sparse   []SparseReceiver
	sleepers []Sleeper
	wake     []int
	inboxes  [][]Message
	next     [][]Message
	touched  [2][]slot
	cur      int
	gotMsg   []int32
	order    []int32
	limit    int

	r     int
	stats Stats
	err   error
	done  bool
	// span is the trace span for this execution (nil when tracing is off;
	// every use is behind a nil test, the whole disabled cost).
	span *trace.Span
}

// NewSeqExec constructs the per-entity protocol state for a step-driven
// sequential execution. The returned SeqExec has executed zero rounds.
func NewSeqExec(t *Topology, f Factory, opts *Options) *SeqExec {
	n := t.N()
	x := &SeqExec{
		t:        t,
		opts:     opts,
		procs:    make([]Protocol, n),
		sparse:   make([]SparseReceiver, n),
		sleepers: make([]Sleeper, n),
		wake:     make([]int, n),
		gotMsg:   make([]int32, n),
		order:    make([]int32, n),
		limit:    opts.RoundLimit(),
		span:     opts.Tracer().StartSpan("sequential", n),
	}
	for i := 0; i < n; i++ {
		x.procs[i] = f(t.ViewOf(i))
		if sr, ok := x.procs[i].(SparseReceiver); ok {
			x.sparse[i] = sr
		}
		if sl, ok := x.procs[i].(Sleeper); ok {
			x.sleepers[i] = sl
		}
		x.order[i] = int32(i)
	}
	if x.bcast = Broadcasters(x.procs); x.bcast != nil {
		x.sent = NewStore(n)
		return x
	}
	x.inboxes = make([][]Message, n)
	x.next = make([][]Message, n)
	for i := 0; i < n; i++ {
		x.inboxes[i] = make([]Message, len(t.Ports[i]))
		x.next[i] = make([]Message, len(t.Ports[i]))
	}
	return x
}

// Done reports whether the execution has finished (successfully or not).
func (x *SeqExec) Done() bool { return x.done }

// Stats returns the execution cost so far and the first error; final once
// Done reports true.
func (x *SeqExec) Stats() (Stats, error) { return x.stats, x.err }

// finish marks the execution done and closes the trace span; it always
// returns true so the Round early-exits can tail-call it.
func (x *SeqExec) finish() bool {
	x.done = true
	x.span.End(x.err)
	return true
}

// Round executes one synchronous round. It returns true once the execution
// has finished; further calls are no-ops.
//
//distec:hotpath
func (x *SeqExec) Round() bool {
	if x.done {
		return true
	}
	if len(x.order) == 0 {
		return x.finish()
	}
	r := x.r + 1
	x.r = r
	if r > x.limit {
		x.err = fmt.Errorf("%w (limit %d)", ErrRoundLimit, x.limit)
		return x.finish()
	}
	if err := x.opts.Interrupted(); err != nil {
		x.err = err
		return x.finish()
	}
	var roundStart time.Time
	prevMsgs := x.stats.Messages
	if x.span != nil {
		roundStart = time.Now()
	}
	x.stats.Rounds = r
	t, cur := x.t, x.cur
	// Clear the stale entries of the buffer about to be written.
	for _, s := range x.touched[cur] {
		x.next[s.entity][s.port] = nil
	}
	x.touched[cur] = x.touched[cur][:0]
	for _, i32 := range x.order {
		i := int(i32)
		if x.wake[i] > r {
			continue
		}
		if x.bcast != nil {
			if v, ok := x.bcast[i].Broadcast(r); ok {
				x.sent.Put(i, r, v)
				for _, j := range t.Ports[i] {
					x.gotMsg[j]++
				}
				x.stats.Messages += int64(len(t.Ports[i]))
			}
			continue
		}
		out := x.procs[i].Send(r)
		if out == nil {
			continue
		}
		if len(out) != len(t.Ports[i]) {
			x.err = fmt.Errorf("local: entity %d sent %d messages, has %d ports", i, len(out), len(t.Ports[i]))
			return x.finish()
		}
		for p, msg := range out {
			if msg == nil {
				continue
			}
			j := t.Ports[i][p]
			back := t.Back[i][p]
			x.next[j][back] = msg
			x.touched[cur] = append(x.touched[cur], slot{entity: j, port: back})
			x.gotMsg[j]++
			x.stats.Messages++
		}
	}
	x.inboxes, x.next = x.next, x.inboxes
	x.cur = 1 - cur
	w := 0
	received := 0
	before := len(x.order)
	for _, i32 := range x.order {
		i := int(i32)
		got := x.gotMsg[i]
		x.gotMsg[i] = 0
		if x.wake[i] > r && got == 0 {
			// Sleeping and nothing arrived: skip by contract.
			x.order[w] = i32
			w++
			continue
		}
		if got != 0 {
			received++
		}
		var done bool
		if got == 0 && x.sparse[i] != nil {
			done = x.sparse[i].ReceiveNone(r)
			if !done && x.sleepers[i] != nil {
				x.wake[i] = x.sleepers[i].NextWake(r)
			}
		} else {
			if x.bcast != nil {
				done = x.bcast[i].ReceiveBroadcast(r, x.sent.Received(t.Ports[i], r))
			} else {
				done = x.procs[i].Receive(r, x.inboxes[i])
			}
			x.wake[i] = 0
		}
		if !done {
			x.order[w] = i32
			w++
		}
	}
	x.order = x.order[:w]
	if x.span != nil {
		x.span.Round(trace.RoundEvent{
			Round:    r,
			Duration: time.Since(roundStart),
			Messages: x.stats.Messages - prevMsgs,
			Received: received,
			Halted:   before - w,
			Active:   w,
		})
	}
	if len(x.order) == 0 {
		return x.finish()
	}
	return false
}

// Rounds executes rounds until the execution finishes or the time budget
// elapses, whichever is first, and reports whether it finished. At least
// one round is executed per call. A budget ≤0 means "until finished".
func (x *SeqExec) Rounds(budget time.Duration) bool {
	if x.done {
		return true
	}
	var until time.Time
	if budget > 0 {
		until = time.Now().Add(budget)
	}
	for {
		if x.Round() {
			return true
		}
		if budget > 0 && !time.Now().Before(until) {
			return false
		}
	}
}
