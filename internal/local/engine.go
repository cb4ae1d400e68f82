package local

import (
	"fmt"

	"github.com/distec/distec/internal/trace"
)

// Engine executes a Protocol on a Topology until every entity halts. The
// two engines in the repository — Sequential and Sharded — run the same
// round loop (Exec) and implement identical synchronous LOCAL semantics: for
// deterministic protocols, error-free runs produce bit-identical results
// and stats, differing only in wall-clock cost. (On a protocol error the
// engines agree on the error and the round it occurred in, but the partial
// stats returned alongside it are engine-specific.)
//
// Algorithm packages are parameterized by Engine so that the same protocol
// code runs unchanged on either of them.
type Engine interface {
	// Name identifies the engine (for logs, benchmarks, and CLI flags).
	Name() string
	// Run executes the protocol built by f on t and returns the LOCAL cost.
	Run(t *Topology, f Factory, opts *Options) (Stats, error)
}

// Sequential is the deterministic single-goroutine engine: the workhorse
// for experiments and the reference semantics the sharded engine is tested
// against. Its Run drives a one-block Exec to completion on the caller.
var Sequential Engine = sequential{}

type sequential struct{}

func (sequential) Name() string { return "sequential" }

func (sequential) Run(t *Topology, f Factory, opts *Options) (Stats, error) {
	x := prepare(t, f, opts, 1, nil, "sequential")
	for !x.Round(nil) {
	}
	return x.Stats()
}

// Sharded returns the parallel engine with k shards; k ≤ 0 selects one
// shard per core (runtime.GOMAXPROCS). The effective count never exceeds
// the entity count. Its Run drives an Exec to completion, fanning each
// phase out on fresh goroutines (GoExecutor). Error-free runs return
// results and stats bit-identical to Sequential. The engine is stateless
// between runs and safe for concurrent use.
func Sharded(k int) Engine { return sharded(k) }

type sharded int

func (k sharded) Name() string {
	if k > 0 {
		return fmt.Sprintf("sharded-%d", int(k))
	}
	return "sharded"
}

func (k sharded) Run(t *Topology, f Factory, opts *Options) (Stats, error) {
	x := prepare(t, f, opts, int(k), GoExecutor, k.Name())
	for !x.Round(GoExecutor) {
	}
	return x.Stats()
}

// Traced wraps an engine so every Run it executes reports to tr: the
// wrapper copies the caller's Options (nil included) and injects the
// tracer, which each engine hands to StartSpan. This is how tracing
// reaches algorithm packages, which call run.Run with their own Options
// — the tracer rides on the engine value, not on any one Options
// struct. A nil tr returns e unchanged, so untraced paths keep the
// exact engine value (and its type assertions) they had.
func Traced(e Engine, tr *trace.Trace) Engine {
	if tr == nil {
		return e
	}
	return &tracedEngine{inner: e, tr: tr}
}

type tracedEngine struct {
	inner Engine
	tr    *trace.Trace
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) Run(t *Topology, f Factory, opts *Options) (Stats, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.Trace = e.tr
	return e.inner.Run(t, f, &o)
}

// SetLabel stamps spans started from here on with a phase label (the
// hook SetSpanLabel reaches through).
func (e *tracedEngine) SetLabel(label string) { e.tr.SetLabel(label) }

// Interrupt forwards to the inner engine's interrupt hook when it has
// one (the serving layer's job engine does; the Vizing path polls it by
// type assertion, which must keep working through the wrapper).
func (e *tracedEngine) Interrupt() error {
	if ir, ok := e.inner.(interface{ Interrupt() error }); ok {
		return ir.Interrupt()
	}
	return nil
}

// SetSpanLabel tags subsequent protocol executions on run with a phase
// label when run is a traced engine, and is a no-op otherwise. Algorithm
// packages call it at phase boundaries ("linial", "defective", "chain",
// "base") without knowing whether tracing is on.
func SetSpanLabel(run Engine, label string) {
	if l, ok := run.(interface{ SetLabel(string) }); ok {
		l.SetLabel(label)
	}
}

// ViewOf returns the static local knowledge of entity i, as handed to the
// Factory by both engines.
func (t *Topology) ViewOf(i int) View {
	return View{Index: i, N: t.N(), Degree: len(t.Ports[i]), MaxDegree: t.MaxDeg}
}
