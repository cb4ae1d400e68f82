// Package serve is the multi-tenant serving layer: one long-lived pool of
// worker lanes (one per core by default) multiplexing many concurrent
// coloring jobs, where each one-shot distec call would otherwise spin up —
// and tear down — an engine of its own.
//
// A job enters through Do with its own context (cancellation + deadline)
// and runs its protocol executions through a job-bound local.Engine that
// routes every execution onto the shared lanes:
//
//   - Small topologies take the fast path: the whole execution runs as one
//     task on one lane via local.Sequential, the fastest engine for
//     small instances — no barriers, no cross-goroutine handoff.
//   - Large topologies run step-driven through the engines' round loop,
//     local.Exec: with several lanes the per-shard phase work of each
//     round fans out across them; with one lane the rounds of a one-block
//     Exec run in bounded time slices, at full sequential speed. Either
//     way a huge graph occupies the lanes only round by round (or slice by
//     slice), so it cannot starve the queue — FIFO task order interleaves
//     every in-flight job at round granularity.
//
// Admission is bounded (Options.QueueDepth): at most that many jobs are in
// flight, further submissions block — backpressure — until a slot frees or
// their context is done. The pool keeps running metrics (job counts, queue
// depth, p50/p99 latency, LOCAL rounds and messages served); see Stats.
//
// Results are bit-identical to local.Sequential for every protocol in the
// repository: every route reuses an engine round loop with exactly that
// guarantee.
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/metrics"
)

// DefaultSmallJob is the entity-count threshold at or below which an
// execution takes the sequential fast path, when Options.SmallJob is zero.
const DefaultSmallJob = 4096

// timeSlice bounds how long one task of a single-lane (non-fanned) large
// execution holds its lane before other jobs get a turn.
const timeSlice = 2 * time.Millisecond

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("serve: pool is closed")

// Options configures a Pool. The zero value selects one worker lane per
// core, a queue depth of four jobs per lane, and the default small-job
// threshold.
type Options struct {
	// Workers is the number of worker lanes (default: runtime.GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs in flight at once (admitted, not
	// merely submitted); further Do calls block until a slot frees or their
	// context is done. Default: 4×Workers.
	QueueDepth int
	// SmallJob is the entity-count threshold at or below which a protocol
	// execution runs whole on one lane via the sequential engine instead of
	// being sharded. Negative disables the fast path. Default:
	// DefaultSmallJob.
	SmallJob int
	// Metrics, when set, exposes the pool's counters and gauges on the
	// registry (distec_serve_* families) and records per-job latency
	// histograms by outcome. The counters exist either way; the registry
	// only adds scrape-time views plus the histogram observations.
	Metrics *metrics.Registry
}

// Pool is the shared-lane batch scheduler. Create with New, submit jobs
// with Do, shut down with Close. All methods are safe for concurrent use.
type Pool struct {
	workers    int
	queueDepth int
	smallJob   int
	slice      time.Duration

	tasks chan func()   // the worker lanes' shared task queue
	sem   chan struct{} // admission slots (QueueDepth)

	mu      sync.Mutex
	closed  bool
	jobs    sync.WaitGroup // in-flight jobs (admitted, not yet returned)
	drivers sync.WaitGroup // fanout driver goroutines (may outlive their job)
	lanes   sync.WaitGroup // worker lane goroutines

	m poolMetrics
}

// New starts a pool: Workers lane goroutines ready to execute job tasks.
func New(o Options) *Pool {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	q := o.QueueDepth
	if q <= 0 {
		q = 4 * w
	}
	small := o.SmallJob
	if small == 0 {
		small = DefaultSmallJob
	}
	p := &Pool{
		workers:    w,
		queueDepth: q,
		smallJob:   small,
		slice:      timeSlice,
		tasks:      make(chan func(), 4*w+16),
		sem:        make(chan struct{}, q),
	}
	if o.Metrics != nil {
		p.m.register(o.Metrics, w, q)
	}
	p.lanes.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer p.lanes.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// Workers returns the number of worker lanes.
func (p *Pool) Workers() int { return p.workers }

// Closed reports whether Close has begun. Layers above the pool (e.g. a
// result cache) use it to honor the after-Close contract on paths that
// would not otherwise reach Do.
func (p *Pool) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Do runs one job on the pool: fn receives a local.Engine bound to ctx that
// executes every protocol run on the shared lanes (see the package comment
// for routing). Do blocks until the job finishes or ctx is done — first
// while waiting for an admission slot, then because the engine aborts
// in-flight executions via the Interrupt seam. The engine must not be used
// after fn returns, and fn must not call Do itself (a job scheduling jobs
// could deadlock admission).
func (p *Pool) Do(ctx context.Context, fn func(local.Engine) error) error {
	p.m.submitted.Add(1)
	p.m.waiting.Add(1)
	select {
	case p.sem <- struct{}{}:
		p.m.waiting.Add(-1)
	case <-ctx.Done():
		p.m.waiting.Add(-1)
		p.m.rejected.Add(1)
		p.m.cancelled.Add(1)
		return ctx.Err()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.sem
		p.m.rejected.Add(1)
		p.m.failed.Add(1)
		return ErrClosed
	}
	p.jobs.Add(1)
	p.mu.Unlock()
	p.m.running.Add(1)
	start := time.Now()
	var (
		err      error
		finished bool
	)
	// The accounting runs in a defer so it survives a panic in fn (an HTTP
	// server recovers handler panics on the far side of this frame): a
	// leaked admission slot would shrink the pool forever, and a leaked
	// jobs.Add would deadlock Close. The panic itself keeps unwinding.
	defer func() {
		elapsed := time.Since(start)
		p.m.recordLatency(elapsed)
		p.m.running.Add(-1)
		switch {
		case !finished:
			p.m.failed.Add(1) // fn panicked
			if p.m.hist != nil {
				p.m.hist.failed.Observe(elapsed.Seconds())
			}
		case err == nil:
			p.m.completed.Add(1)
			if p.m.hist != nil {
				p.m.hist.completed.Observe(elapsed.Seconds())
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			p.m.cancelled.Add(1)
			if p.m.hist != nil {
				p.m.hist.cancelled.Observe(elapsed.Seconds())
			}
		default:
			p.m.failed.Add(1)
			if p.m.hist != nil {
				p.m.hist.failed.Observe(elapsed.Seconds())
			}
		}
		p.jobs.Done()
		<-p.sem
	}()
	err = fn(&jobEngine{p: p, ctx: ctx})
	finished = true
	return err
}

// Close stops admission, waits for in-flight jobs to drain, and stops the
// worker lanes. Jobs submitted after (or during) Close fail with ErrClosed;
// Close never abandons a running job. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.lanes.Wait() // lose the race to the first Close, but return drained
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.jobs.Wait()
	// Fanout drivers abandoned by a cancelled job may still be fanning
	// their final round onto the lanes; they halt on their own (Interrupt)
	// and must finish before the task channel closes.
	p.drivers.Wait()
	close(p.tasks)
	p.lanes.Wait()
}

// Execute implements local.Executor: phase tasks of fanned-out large
// executions share the same lanes (and FIFO order) as whole small jobs.
func (p *Pool) Execute(task func()) { p.tasks <- task }
