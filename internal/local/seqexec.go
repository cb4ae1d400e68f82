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
// Its entities live in one Block, which spans them all and runs each
// round's send and receive phases: a run whose every entity is a
// Broadcaster keeps one value per entity per round in a Store, any other
// run one port-indexed inbox per entity. A round visits only the entities
// that are due and those a message reached, so its cost is O(visited
// entities + messages): a round in which nothing is due only polls
// Interrupt and records its trace event. That is what keeps long, sparse
// schedules — one class per round — cheap.
type SeqExec struct {
	t     *Topology
	opts  *Options
	blk   *Block
	sent  Store
	limit int

	r     int
	stats Stats
	err   error
	done  bool
	// visits counts the entities the receive phases examined (every
	// entity a send phase visits is among them).
	visits int64
	// span is the trace span for this execution (nil when tracing is off;
	// every use is behind a nil test, the whole disabled cost).
	span *trace.Span
}

// NewSeqExec constructs the per-entity protocol state for a step-driven
// sequential execution. The returned SeqExec has executed zero rounds.
func NewSeqExec(t *Topology, f Factory, opts *Options) *SeqExec {
	n := t.N()
	x := &SeqExec{
		t:     t,
		opts:  opts,
		blk:   NewBlock(t, f, 0, n),
		limit: opts.RoundLimit(),
		span:  opts.Tracer().StartSpan("sequential", n),
	}
	if x.blk.Broadcasting() {
		x.sent = NewStore(n)
	} else {
		x.blk.UsePorts(t)
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
	b := x.blk
	if b.Live() == 0 {
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
	if x.span != nil {
		roundStart = time.Now()
	}
	x.stats.Rounds = r
	var msgs int64
	var received, halted int
	if b.Start(r) {
		var err error
		msgs, _, err = b.Send(r, x.t, x.sent, nil)
		x.stats.Messages += msgs
		if err != nil {
			x.err = err
			return x.finish()
		}
		var visited int
		visited, received, halted = b.Receive(r, x.t, x.sent)
		x.visits += int64(visited)
	}
	if x.span != nil {
		x.span.Round(trace.RoundEvent{
			Round:    r,
			Duration: time.Since(roundStart),
			Messages: msgs,
			Received: received,
			Halted:   halted,
			Active:   b.Live(),
		})
	}
	if b.Live() == 0 {
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
