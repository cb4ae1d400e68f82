package local

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/distec/distec/internal/trace"
)

// Executor schedules tasks onto workers owned by someone else. It is the
// seam that detaches a sharded round from any one goroutine pool: an Exec
// fans its per-shard phase work out through an Executor instead of owning
// goroutines, so one long-lived worker pool (internal/serve) can multiplex
// the rounds of many concurrent executions.
//
// Execute must run every task exactly once, on any goroutine, and may block
// until a worker is free. Tasks of one phase are independent; the Exec
// provides the barrier between phases itself.
type Executor interface {
	Execute(task func())
}

// goExecutor is the trivial executor: one fresh goroutine per task. It is
// what the sharded engine's Run drives its Exec with.
type goExecutor struct{}

func (goExecutor) Execute(task func()) { go task() }

// GoExecutor runs every task on a fresh goroutine.
var GoExecutor Executor = goExecutor{}

// Exec is the one round loop of both engines: an in-flight execution whose
// rounds are driven externally. Build it with Prepare, then call Round
// until it reports completion, then read Stats. Its entities are split
// into contiguous shards, each a block driven by a worker. The sequential
// engine is the one-block case, which runs inline on the caller; with more
// shards, every round runs all shards' send phases, a barrier, all shards'
// receive phases and a second barrier, the per-shard work fanned out
// through an Executor. An Exec holds no goroutines between rounds, so many
// Execs can share one worker pool, interleaving at round granularity.
//
// Error-free executions give identical colors, rounds and message counts
// for every shard count (on a protocol error, each shard stops sending at
// its own first bad entity, so the partial message count returned with the
// error depends on the shards): the receive order within a shard is
// ascending entity order, and inboxes and broadcast views are port-indexed,
// so delivery order is immaterial.
//
// The driving goroutine must not call Round concurrently with itself; the
// parallelism is inside a round, across shards.
type Exec struct {
	t       *Topology
	opts    *Options
	st      runState
	workers []*worker
	// solo is the worker of a one-block execution: held in the Exec, it
	// costs the sequential engine no allocation of its own.
	solo worker
	// sent holds the broadcast path's values: round r writes it in the
	// send phase and receivers read it after the send barrier.
	sent  store
	limit int
	r     int
	done  bool
	stats Stats
	// span is the trace span of this execution (nil when tracing is off);
	// prevSent tracks the workers' cumulative send counters between
	// rounds. timed is set when the span records per-shard busy times,
	// that is when it exists and there is more than one shard. Only the
	// driving goroutine touches prevSent.
	span     *trace.Span
	prevSent int64
	timed    bool
}

// Prepare partitions the topology into at most shards blocks (≤0 selects
// one per core, clamped to the entity count) and constructs the per-shard
// protocol state, fanning construction out through exec (nil runs it
// inline): the Factory is called from every shard's task at once. Its
// trace span is named "sequential" when shards is 1 and "sharded"
// otherwise. The returned Exec has executed zero rounds.
func Prepare(t *Topology, f Factory, opts *Options, shards int, exec Executor) *Exec {
	name := "sharded"
	if shards == 1 {
		name = "sequential"
	}
	return prepare(t, f, opts, shards, exec, name)
}

// prepare is Prepare with the engine name its trace span reports: the
// engines name spans after themselves ("sequential", "sharded-3").
func prepare(t *Topology, f Factory, opts *Options, shards int, exec Executor, name string) *Exec {
	n := t.N()
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	shards = min(shards, n)
	x := &Exec{t: t, opts: opts, limit: opts.RoundLimit(), span: opts.Tracer().StartSpan(name, n)}
	switch {
	case n == 0:
		x.finish()
	case shards == 1:
		x.solo = worker{x: x, blk: newBlock(t, f, 0, n)}
		x.workers = []*worker{&x.solo}
		if x.solo.blk.broadcasting() {
			x.sent = newStore(n)
		} else {
			x.solo.blk.usePorts(t)
		}
	default:
		x.shard(f, shards, exec)
	}
	return x
}

// shard splits the entities into shards (at least two) contiguous blocks
// of near-equal work and builds them in parallel through exec.
func (x *Exec) shard(f Factory, shards int, exec Executor) {
	t, n := x.t, x.t.N()
	weights := make([]int, n)
	for i := range weights {
		weights[i] = len(t.Ports[i]) + 1
	}
	bounds := Partition(weights, shards)
	shardOf := shardMap(bounds, n)
	x.workers = make([]*worker, shards)
	for s := range x.workers {
		x.workers[s] = &worker{
			x:       x,
			id:      s,
			shardOf: shardOf,
			out:     newOutbox[delivery](shards),
			arrive:  newOutbox[int32](shards),
		}
	}
	x.each(exec, func(w *worker) { w.blk = newBlock(t, f, bounds[w.id], bounds[w.id+1]) })
	if x.st.getErr() != nil {
		// A shard's Factory panicked, so its block is not whole.
		x.finish()
		return
	}
	broadcast := true
	for _, w := range x.workers {
		broadcast = broadcast && w.blk.broadcasting()
	}
	if broadcast {
		x.sent = newStore(n)
	} else {
		x.each(exec, func(w *worker) { w.blk.usePorts(t) })
	}
	x.timed = x.span != nil
}

// Done reports whether the execution has finished (successfully or not).
func (x *Exec) Done() bool { return x.done }

// Stats returns the execution cost so far and the first error. It may be
// called between rounds (not concurrently with one); the result is final
// once Done reports true.
func (x *Exec) Stats() (Stats, error) {
	s := x.stats
	if !x.done {
		for _, w := range x.workers {
			s.Messages += w.sent
		}
	}
	return s, x.st.getErr()
}

// each runs task for every shard and waits for all of them: through exec
// when given and more than one shard exists, inline otherwise. The
// WaitGroup is the inter-phase barrier: every write a task makes happens
// before Wait returns, and every write the driver made before the fan-out
// happens before the tasks run.
//
// A panic on a fanned-out task is recorded as the execution's error rather
// than unwinding the executor's worker goroutine (which, on a shared pool,
// would kill every tenant): the next barrier check sees the error and the
// execution halts. Inline execution lets panics propagate to the caller,
// who owns the goroutine.
func (x *Exec) each(exec Executor, task func(w *worker)) {
	if exec == nil || len(x.workers) == 1 {
		for _, w := range x.workers {
			task(w)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(x.workers))
	for _, w := range x.workers {
		exec.Execute(func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					x.st.recordErr(-1, fmt.Errorf("%w: shard %d: %v", ErrPanic, w.id, r))
				}
			}()
			task(w)
		})
	}
	wg.Wait()
}

// Round executes one synchronous round — send phase, barrier, deliver and
// receive phase, barrier, halt decision — fanning the per-shard work out
// through exec (nil runs inline on the caller). It returns true once the
// execution has finished; further calls are no-ops.
//
//distec:hotpath
func (x *Exec) Round(exec Executor) bool {
	if x.done {
		return true
	}
	r := x.r + 1
	x.r = r
	st := &x.st
	if r > x.limit {
		st.recordErr(-1, fmt.Errorf("%w (limit %d)", ErrRoundLimit, x.limit))
		return x.finish()
	}
	if err := x.opts.Interrupted(); err != nil {
		st.recordErr(-1, err)
		return x.finish()
	}
	var roundStart time.Time
	if x.span != nil {
		roundStart = time.Now()
	}
	x.stats.Rounds = r
	x.each(exec, (*worker).sendPhase)
	err := st.getErr()
	if err == nil {
		x.each(exec, (*worker).receivePhase)
		err = st.getErr()
	}
	live := 0
	for _, w := range x.workers {
		live += w.blk.nLive
	}
	if x.span != nil && err == nil {
		var msgs int64
		received, halted := 0, 0
		var busy []time.Duration
		if x.timed {
			busy = make([]time.Duration, len(x.workers))
		}
		for s, w := range x.workers {
			msgs += w.sent
			received += w.rReceived
			halted += w.rHalted
			if x.timed {
				busy[s], w.busy = w.busy, 0
			}
		}
		msgs, x.prevSent = msgs-x.prevSent, msgs
		x.span.Round(trace.RoundEvent{
			Round:     r,
			Duration:  time.Since(roundStart),
			Messages:  msgs,
			Received:  received,
			Halted:    halted,
			Active:    live,
			ShardBusy: busy,
		})
	}
	if live == 0 || err != nil {
		return x.finish()
	}
	return false
}

// Rounds executes rounds inline until the execution finishes or the time
// budget elapses, whichever is first, and reports whether it finished. At
// least one round is executed per call. A budget ≤0 means "until
// finished".
func (x *Exec) Rounds(budget time.Duration) bool {
	var until time.Time
	if budget > 0 {
		until = time.Now().Add(budget)
	}
	for {
		if x.Round(nil) {
			return true
		}
		if budget > 0 && !time.Now().Before(until) {
			return false
		}
	}
}

// finish seals the execution: message totals are aggregated once, so Stats
// stays O(shards). It always returns true, for Round to tail-call it.
func (x *Exec) finish() bool {
	x.done = true
	for _, w := range x.workers {
		x.stats.Messages += w.sent
	}
	x.span.End(x.st.getErr())
	return true
}

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
