// Package local implements the synchronous LOCAL model of distributed
// computing (Linial 1987, Peleg 2000) used by the paper.
//
// A Topology fixes a set of communication entities (graph nodes, or graph
// edges communicating with conflicting edges), each with a unique identifier
// and port-numbered links. A Protocol is the per-entity state machine: in
// every synchronous round each entity produces at most one message per
// port, the engine delivers all messages, and each entity consumes its
// inbox and decides whether to halt. Messages are arbitrary Go values — the
// LOCAL model does not charge for bandwidth, only rounds. Most protocols
// here send one int on every port (Linial's reduction, the greedy base, the
// randomized trials, the distributed check); as Broadcasters they take the
// engines' broadcast path, where a round stores one value per entity and a
// receiver reads its neighbors' values through its own ports, with the same
// semantics and message counts as the per-port path.
//
// Two engines execute the same Protocol with identical semantics (see the
// Engine interface), each through one round loop:
//
//   - Sequential: a deterministic loop on one goroutine (SeqExec.Round);
//     the workhorse for experiments and the reference semantics.
//   - internal/sharded: entities split into shards whose per-round work
//     runs in parallel, with batch mailboxes between shards
//     (sharded.Exec.Round). An entity there sees only what its
//     neighbors' shards delivered, so bit-identical results cross-check
//     that every protocol is an honest message-passing program.
//
// Both run their rounds through Blocks: a Block owns a share of the
// entities with their inboxes, and its one send phase and one receive
// phase visit only the entities that are due and those a message
// reached; sleepers wait under their wake round.
//
// Entities know, at start: their own ID, their degree, the global entity
// count and the global maximum degree (standard LOCAL assumptions; the paper
// additionally lets every node know n and Δ), and nothing else: a View
// carries no topology-specific metadata. They do NOT know neighbor IDs
// until a neighbor sends them.
//
// Conflict topologies come from pair systems (Pairs): items that each
// occupy two sides — a graph edge its endpoints, an edge of the paper's
// §4.2 virtual graphs two virtual node copies — linked iff they share a
// side. What the endpoints of an edge know without communication (its
// rank at each side, the side's size) is read centrally from the Pairs by
// the algorithm that builds the next topology.
package local

import (
	"errors"
	"fmt"

	"github.com/distec/distec/internal/trace"
)

// Message is an arbitrary LOCAL-model message. A nil Message means
// "nothing sent on this port this round".
type Message any

// View is the static local knowledge of one entity.
type View struct {
	// Index is the entity's index in the topology, in {0..N-1}. It also
	// serves as the unique identifier required by the LOCAL model.
	Index int
	// N is the total number of entities (nodes know n).
	N int
	// Degree is the number of ports of this entity.
	Degree int
	// MaxDegree is the maximum degree over all entities (nodes know Δ).
	MaxDegree int
}

// Protocol is the per-entity algorithm. The engine drives it as:
//
//	for r := 1; ...; r++ {
//	    out := Send(r)            // for every active entity
//	    deliver all messages
//	    done := Receive(r, inbox) // for every active entity
//	}
//
// until every entity has returned done=true. A halted entity sends nothing
// in later rounds and its Receive is not called again. Each port carries
// its own message, so a protocol may tell its neighbors different things;
// one that sends the same int on every port implements Broadcaster too.
type Protocol interface {
	// Send returns the messages for round r, indexed by port. The returned
	// slice must have length Degree (use View.Degree); nil entries send
	// nothing. Returning a nil slice sends nothing at all.
	Send(r int) []Message
	// Receive consumes the messages delivered in round r (inbox[p] is the
	// message from the neighbor on port p, nil if it sent nothing) and
	// reports whether the entity halts.
	Receive(r int, inbox []Message) (done bool)
}

// Sleeper is an optional event-driven fast path for protocols with long
// quiet stretches (e.g. the one-class-per-round greedy phase). When a
// Sleeper received no message in a round, the engines call ReceiveNone
// instead of Receive, sparing the O(degree) inbox scan; ReceiveNone must
// behave exactly like Receive with an all-nil inbox. After every round r
// the entity survives, the engines ask NextWake(r), which promises that —
// absent incoming messages — the entity will send nothing and its
// ReceiveNone will not change its state or halt it before round
// NextWake(r). A value above r+1 files the entity under that wake round,
// and no round visits it until then or until a message reaches it; a
// woken sleeper is asked again after the round it was woken in. Results
// are identical to ticking the entity every round because the skipped
// calls are no-ops by contract, and a round in which no entity is due and
// nothing is sent costs the engines O(1): long deterministic schedules
// (one class per round) become event-driven simulation.
type Sleeper interface {
	ReceiveNone(r int) (done bool)
	NextWake(r int) int
}

// Topology is a fixed port-numbered communication structure.
type Topology struct {
	// Ports[i][p] is the entity reached from entity i via port p.
	Ports [][]int32
	// Back[i][p] is the port at entity Ports[i][p] that leads back to i.
	Back [][]int32
	// MaxDeg is the maximum entity degree, precomputed.
	MaxDeg int
}

// N returns the number of entities.
func (t *Topology) N() int { return len(t.Ports) }

// Degree returns the degree of entity i.
func (t *Topology) Degree(i int) int { return len(t.Ports[i]) }

// Validate checks the port structure for internal consistency: every link
// must be bidirectional with matching back-pointers.
func (t *Topology) Validate() error {
	for i := range t.Ports {
		if len(t.Back[i]) != len(t.Ports[i]) {
			return fmt.Errorf("local: entity %d has %d ports but %d back-pointers", i, len(t.Ports[i]), len(t.Back[i]))
		}
		for p, j := range t.Ports[i] {
			b := t.Back[i][p]
			if int(j) < 0 || int(j) >= len(t.Ports) {
				return fmt.Errorf("local: entity %d port %d points to unknown entity %d", i, p, j)
			}
			if int(b) < 0 || int(b) >= len(t.Ports[j]) {
				return fmt.Errorf("local: entity %d port %d has bad back-port %d", i, p, b)
			}
			if int(t.Ports[j][b]) != i {
				return fmt.Errorf("local: link %d.%d -> %d.%d is not symmetric", i, p, j, b)
			}
		}
	}
	return nil
}

// Stats aggregates the cost of a protocol execution.
type Stats struct {
	// Rounds is the number of synchronous rounds until all entities halted.
	Rounds int
	// Messages is the total number of non-nil messages delivered.
	Messages int64
}

// Factory constructs the protocol instance for one entity from its view.
// The sharded engine builds its shards in parallel, so a Factory must be
// safe for concurrent use.
type Factory func(v View) Protocol

// ErrRoundLimit is returned when a protocol exceeds the engine's round cap,
// which indicates a livelocked or diverging protocol.
var ErrRoundLimit = errors.New("local: round limit exceeded")

// ErrPanic marks (via errors.Is) run errors produced by converting a panic
// during protocol execution — a server-side defect, never a property of the
// input. The serving layer's isolated executions wrap recovered panics with
// it so callers (e.g. an HTTP daemon) can classify them as internal errors.
var ErrPanic = errors.New("local: panic during protocol execution")

// Options tunes an engine run.
type Options struct {
	// MaxRounds caps the execution (default DefaultMaxRounds). Exceeding it
	// returns ErrRoundLimit.
	MaxRounds int
	// Interrupt, when non-nil, is polled by both engines once per round,
	// before the round starts, on the goroutine driving the execution; the
	// first non-nil error aborts the run and is returned as the run error.
	// It is how callers plumb context cancellation and deadlines into an
	// execution (see internal/serve).
	Interrupt func() error
	// Trace, when non-nil, receives one span per engine run carrying
	// per-round events (duration, messages, deliveries, halts). Nil — the
	// default — disables tracing; the disabled cost is one pointer test
	// per run plus one per round, which is what keeps the engines inside
	// the ≤2% overhead gate.
	Trace *trace.Trace
}

// DefaultMaxRounds is the round cap applied when Options.MaxRounds is unset.
const DefaultMaxRounds = 1 << 20

// RoundLimit returns the effective round cap of o (DefaultMaxRounds when o
// is nil or MaxRounds is unset). Both engines enforce the same cap.
func (o *Options) RoundLimit() int {
	if o == nil || o.MaxRounds <= 0 {
		return DefaultMaxRounds
	}
	return o.MaxRounds
}

// Interrupted polls the Interrupt hook, tolerating a nil receiver and a nil
// hook (both mean "never interrupted"). Engines call it about once per round.
func (o *Options) Interrupted() error {
	if o == nil || o.Interrupt == nil {
		return nil
	}
	return o.Interrupt()
}

// Tracer returns the configured tracer, tolerating a nil receiver (nil
// means "tracing off"). Engines call it once per run and hand the result
// straight to trace.Trace.StartSpan, which is itself nil-safe.
func (o *Options) Tracer() *trace.Trace {
	if o == nil {
		return nil
	}
	return o.Trace
}
