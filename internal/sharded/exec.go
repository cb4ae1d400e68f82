package sharded

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/trace"
)

// Executor schedules tasks onto workers owned by someone else. It is the
// seam that detaches the sharded round from any one goroutine pool: an
// Exec fans its per-shard phase work out through an Executor instead of
// owning goroutines, so one long-lived worker pool (internal/serve) can
// multiplex the rounds of many concurrent executions.
//
// Execute must run every task exactly once, on any goroutine, and may block
// until a worker is free. Tasks of one phase are independent; the Exec
// provides the barrier between phases itself.
type Executor interface {
	Execute(task func())
}

// goExecutor is the trivial executor: one fresh goroutine per task. It is
// what Engine.Run drives its Exec with.
type goExecutor struct{}

func (goExecutor) Execute(task func()) { go task() }

// GoExecutor runs every task on a fresh goroutine.
var GoExecutor Executor = goExecutor{}

// Exec is one in-flight execution whose rounds are driven externally: build
// it with Prepare, then call Round until it reports completion, then read
// Stats. An Exec holds no goroutines between steps, so many Execs can share
// one worker pool, interleaving at round granularity; Engine.Run drives the
// same loop on fresh goroutines.
//
// Error-free executions are bit-identical to local.Sequential: identical
// colors, rounds, and message counts.
//
// The driving goroutine must not call Round concurrently with itself; the
// parallelism is inside a round, across shards.
type Exec struct {
	t       *local.Topology
	opts    *local.Options
	st      *runState
	workers []*worker
	// sent holds the broadcast path's values: round r writes it in the
	// send phase and receivers read it after the send barrier (see
	// outbox).
	sent  local.Store
	limit int
	r     int
	done  bool
	stats local.Stats
	// span is the trace span of this execution (nil when tracing is off);
	// prevSent tracks the workers' cumulative send counters between
	// rounds. Only the driving goroutine touches either.
	span     *trace.Span
	prevSent int64
	// sendTask and recvTask are the per-shard phase bodies, bound once at
	// Prepare: they read the round number from the struct, so Round fans
	// them out without allocating a closure per round. The driving
	// goroutine writes x.r strictly before each fan-out and the WaitGroup
	// barrier in each orders that write against the tasks.
	// When traced, each also adds its wall time to its shard's busy time.
	sendTask func(s int, w *worker)
	recvTask func(s int, w *worker)
}

// Prepare partitions the topology into at most shards blocks (≤0 selects
// one per core, clamped to the entity count) and constructs the per-shard
// protocol state, fanning construction out through exec (nil runs it
// inline): the Factory is called from every shard's task at once. The
// returned Exec has executed zero rounds.
func Prepare(t *local.Topology, f local.Factory, opts *local.Options, shards int, exec Executor) *Exec {
	return prepare(t, f, opts, shards, exec, "sharded")
}

// prepare is Prepare with the engine name its trace span reports:
// Engine.Run names spans after itself ("sharded-3"), pool-driven
// executions "sharded".
func prepare(t *local.Topology, f local.Factory, opts *local.Options, shards int, exec Executor, name string) *Exec {
	n := t.N()
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > n {
		shards = n
	}
	x := &Exec{t: t, opts: opts, limit: opts.RoundLimit(), span: opts.Tracer().StartSpan(name, n)}
	if n == 0 {
		x.done = true
		x.span.End(nil)
		return x
	}
	weights := make([]int, n)
	for i := range weights {
		weights[i] = len(t.Ports[i]) + 1
	}
	bounds := Partition(weights, shards)
	shards = len(bounds) - 1
	shardOf := shardMap(bounds, n)
	x.st = &runState{}
	x.workers = make([]*worker, shards)
	x.each(exec, func(s int, _ *worker) {
		x.workers[s] = newWorker(s, bounds, shardOf, t, f)
	})
	if x.broadcast() {
		x.sent = local.NewStore(n)
	} else {
		x.each(exec, func(_ int, w *worker) { w.blk.UsePorts(t) })
	}
	traced := x.span != nil
	x.sendTask = func(_ int, w *worker) {
		var start time.Time
		if traced {
			start = time.Now()
		}
		w.sendPhase(x.r, x.t, x.st, x.sent)
		if traced {
			w.busy += time.Since(start)
		}
	}
	x.recvTask = func(_ int, w *worker) {
		var start time.Time
		if traced {
			start = time.Now()
		}
		w.receivePhase(x.r, x.t, x.sent, x.workers)
		if traced {
			w.busy += time.Since(start)
		}
	}
	return x
}

// broadcast reports whether every entity of the run is a
// local.Broadcaster, which puts the whole run on the broadcast path.
func (x *Exec) broadcast() bool {
	for _, w := range x.workers {
		if !w.blk.Broadcasting() {
			return false
		}
	}
	return true
}

// Done reports whether the execution has finished (successfully or not).
func (x *Exec) Done() bool { return x.done }

// Stats returns the execution cost so far and the first error. It may be
// called between rounds (not concurrently with one); the result is final
// once Done reports true.
func (x *Exec) Stats() (local.Stats, error) {
	if x.st == nil {
		return local.Stats{}, nil
	}
	s := x.stats
	if !x.done {
		for _, w := range x.workers {
			s.Messages += w.sent
		}
	}
	return s, x.st.getErr()
}

// each runs f for every shard and waits for all of them: through exec when
// given and more than one shard exists, inline otherwise. The WaitGroup is
// the inter-phase barrier: every write a task makes happens before Wait
// returns, and every write the driver made before the fan-out happens
// before the tasks run.
//
// A panic on a fanned-out task is recorded as the execution's error rather
// than unwinding the executor's worker goroutine (which, on a shared pool,
// would kill every tenant): the next barrier check sees the error and the
// execution halts. Inline execution lets panics propagate to the caller,
// who owns the goroutine.
func (x *Exec) each(exec Executor, f func(s int, w *worker)) {
	if exec == nil || len(x.workers) <= 1 {
		for s := range x.workers {
			f(s, x.workers[s])
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(x.workers))
	for s := range x.workers {
		s, w := s, x.workers[s]
		exec.Execute(func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					x.st.recordErr(-1, fmt.Errorf("%w: shard %d: %v", local.ErrPanic, s, r))
				}
			}()
			f(s, w)
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
	st := x.st
	if r > x.limit {
		st.recordErr(-1, fmt.Errorf("%w (limit %d)", local.ErrRoundLimit, x.limit))
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
	x.each(exec, x.sendTask)
	if st.getErr() == nil {
		x.each(exec, x.recvTask)
	}
	total := 0
	for _, w := range x.workers {
		total += w.blk.Live()
	}
	if x.span != nil && st.getErr() == nil {
		var msgs int64
		received, halted := 0, 0
		busy := make([]time.Duration, len(x.workers))
		for s, w := range x.workers {
			msgs += w.sent
			received += w.rReceived
			halted += w.rHalted
			busy[s], w.busy = w.busy, 0
		}
		msgs, x.prevSent = msgs-x.prevSent, msgs
		x.span.Round(trace.RoundEvent{
			Round:     r,
			Duration:  time.Since(roundStart),
			Messages:  msgs,
			Received:  received,
			Halted:    halted,
			Active:    total,
			ShardBusy: busy,
		})
	}
	if total == 0 || st.getErr() != nil {
		return x.finish()
	}
	return false
}

// finish seals the execution: message totals are aggregated once, so Stats
// stays O(shards).
func (x *Exec) finish() bool {
	x.done = true
	for _, w := range x.workers {
		x.stats.Messages += w.sent
	}
	x.span.End(x.st.getErr())
	return true
}
