// Package trace is a zero-dependency, round-resolved execution tracer
// for the LOCAL engines. A *Trace collects one Span per protocol
// execution (one local.Engine.Run, or one step-driven local.Exec drive)
// and one RoundEvent per synchronous round inside it: duration, messages
// sent, entities that received state, entities that halted, and — for an
// execution of more than one shard — per-shard busy time.
//
// Every method on *Trace and *Span is nil-safe: a nil tracer is the
// disabled state, engines call through it unconditionally, and the
// whole feature costs one pointer test per round when off. That is the
// contract the ≤2% disabled-overhead gate in BENCH_trace.json holds
// the engines to.
//
// Counter semantics are engine-invariant by construction, so the
// cross-engine equivalence matrix can assert on them bit-for-bit:
//
//   - Messages: non-nil messages sent this round (same count every
//     engine reports in its Stats).
//   - Received: entities, not yet halted, that had at least one message
//     delivered this round.
//   - Halted: entities whose Receive returned done this round.
//   - Active: entities still running after the round's halts.
//
// A round with Messages == 0 and Halted == 0 is quiescent: no entity
// could have observed anything new, so it is pure simulation overhead —
// the round-compression target the raw-speed pass optimizes against.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Trace accumulates spans for one solve (one CLI run, one daemon
// request, or one dynamic-session batch). Safe for concurrent use; the
// engines only take the lock when tracing is actually on.
type Trace struct {
	mu    sync.Mutex
	epoch time.Time
	reqID string
	label string
	spans []*Span
}

// New returns an empty trace whose epoch (the zero timestamp all span
// and round offsets are relative to) is now.
func New() *Trace {
	return &Trace{epoch: time.Now()}
}

// SetLabel sets the phase label attached to spans started from here on.
// The solver calls this at phase boundaries ("linial", "defective",
// "chain", "base"); a nil receiver is a no-op.
func (t *Trace) SetLabel(label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.label = label
	t.mu.Unlock()
}

// SetRequestID attaches the serving-layer request ID (X-Request-Id) so
// exported traces and summaries are joinable with access logs.
func (t *Trace) SetRequestID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.reqID = id
	t.mu.Unlock()
}

// RequestID returns the attached request ID ("" when unset or nil).
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reqID
}

// StartSpan opens a span for one protocol execution on the named engine
// over the given entity count, stamped with the current phase label.
// On a nil trace it returns a nil span, whose methods are all no-ops —
// the engines never test the tracer themselves beyond this call.
func (t *Trace) StartSpan(engine string, entities int) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{
		tr:       t,
		Engine:   engine,
		Label:    t.label,
		Entities: entities,
		Start:    time.Since(t.epoch),
	}
	t.spans = append(t.spans, s)
	return s
}

// snapshot copies the span list under the lock so exporters can walk it
// without racing live engines (a traced solve may still be running when
// an aggregator reads partial state).
func (t *Trace) snapshot() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Spans returns a snapshot of the span list in execution order. The
// slice is a copy; the spans are shared — read them only after the
// traced solve has returned. A nil trace returns nil.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.snapshot()
}

// VisitRounds calls f for every recorded round event, span by span in
// execution order. Aggregators (the daemon's round-duration histogram)
// use it instead of reaching into span internals; a nil trace visits
// nothing. The span list is snapshotted first, but events are read
// without the lock — call only after the traced solve has returned.
func (t *Trace) VisitRounds(f func(RoundEvent)) {
	if t == nil {
		return
	}
	for _, s := range t.snapshot() {
		for _, ev := range s.Rounds {
			f(ev)
		}
	}
}

// Span records one protocol execution: which engine ran it, under which
// phase label, over how many entities, and its per-round event stream.
type Span struct {
	tr *Trace

	Engine   string
	Label    string
	Entities int
	// Start is the offset from the trace epoch; Wall the span's total
	// duration (set by End).
	Start time.Duration
	Wall  time.Duration
	Err   string

	Rounds []RoundEvent
}

// Round appends one round's event. Engines emit from the goroutine
// driving the execution, but the trace lock is taken anyway so
// exporters and the race detector see a consistent stream.
func (s *Span) Round(ev RoundEvent) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Rounds = append(s.Rounds, ev)
	s.tr.mu.Unlock()
}

// End closes the span, stamping its wall duration and any execution
// error.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Wall = time.Since(s.tr.epoch) - s.Start
	if err != nil {
		s.Err = err.Error()
	}
	s.tr.mu.Unlock()
}

// RoundEvent is one synchronous round as every engine reports it.
type RoundEvent struct {
	// Round is the 1-based round number within the span.
	Round    int
	Duration time.Duration
	// Messages counts non-nil messages sent this round; Received the
	// not-yet-halted entities that had at least one delivered; Halted
	// the entities whose Receive returned done; Active the entities
	// still running afterwards. All four are engine-invariant.
	Messages int64
	Received int
	Halted   int
	Active   int
	// ShardBusy is the per-shard busy time for this round (executions of
	// more than one shard only; nil elsewhere). Skew between entries is
	// the partitioner's imbalance.
	ShardBusy []time.Duration
}

// Quiescent reports whether the round carried no information: nothing
// was sent and nothing halted, so no entity could have changed state
// observably. Quiescent rounds are the round-compression opportunity.
func (e RoundEvent) Quiescent() bool {
	return e.Messages == 0 && e.Halted == 0
}

// NewRequestID returns a fresh 16-hex-char request ID (crypto/rand),
// the ID minted when a client did not supply X-Request-Id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant ID keeps
		// the serving path alive and is obvious in logs.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
