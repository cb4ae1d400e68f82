package serve

import (
	"context"
	"fmt"

	"github.com/distec/distec/internal/local"
)

// jobEngine is the local.Engine handed to a job's fn: it routes every
// protocol execution of the job onto the pool's shared lanes and plumbs the
// job context into the engines through the Interrupt seam. One algorithm
// invocation makes many Run calls (sub-instances of the recursion), so the
// routing decision is per execution, not per job: a large job's small
// sub-instances still take the sequential fast path.
type jobEngine struct {
	p *Pool
	// ctx is the job's context, carried so the fixed local.Engine interface
	// (Name/Interrupt/Run take no ctx — every engine implements it) can observe
	// the job's deadline. The adapter lives exactly one job execution, so
	// the stored ctx cannot outlive its call.
	//distec:nolint ctxflow
	ctx context.Context
}

// Name implements local.Engine.
func (e *jobEngine) Name() string { return "serve" }

// Interrupt exposes the job context's liveness to non-protocol solvers
// (distec's sequential vizing algorithm): they never execute a Run this
// engine could thread its per-round Interrupt hook into, so they poll this
// directly and a job's cancellation or deadline still aborts them.
func (e *jobEngine) Interrupt() error { return e.ctx.Err() }

// Run implements local.Engine.
func (e *jobEngine) Run(t *local.Topology, f local.Factory, opts *local.Options) (local.Stats, error) {
	p := e.p
	if err := e.ctx.Err(); err != nil {
		return local.Stats{}, err
	}
	opts = withInterrupt(e.ctx, opts)
	var (
		stats local.Stats
		err   error
	)
	switch {
	case t.N() <= p.smallJob:
		p.m.seqRuns.Add(1)
		stats, err = p.runOnLane(e.ctx, t, f, opts)
	case p.workers == 1:
		p.m.slicedRuns.Add(1)
		stats, err = p.runSliced(e.ctx, t, f, opts)
	default:
		p.m.fanoutRuns.Add(1)
		stats, err = p.runFanout(e.ctx, t, f, opts)
	}
	p.m.rounds.Add(int64(stats.Rounds))
	p.m.messages.Add(stats.Messages)
	return stats, err
}

// withInterrupt returns a copy of opts whose Interrupt hook also polls ctx,
// so engines abort promptly when the job is cancelled or its deadline
// passes.
func withInterrupt(ctx context.Context, opts *local.Options) *local.Options {
	var o local.Options
	if opts != nil {
		o = *opts
	}
	prev := o.Interrupt
	o.Interrupt = func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if prev != nil {
			return prev()
		}
		return nil
	}
	return &o
}

// runOnLane is the small-execution fast path: the whole run is one task on
// one lane, on the sequential engine — for small topologies the fastest
// engine there is, and exactly the reference semantics.
func (p *Pool) runOnLane(ctx context.Context, t *local.Topology, f local.Factory, opts *local.Options) (local.Stats, error) {
	var (
		stats local.Stats
		err   error
	)
	if lerr := p.onLane(ctx, func() {
		stats, err = local.Sequential.Run(t, f, opts)
	}); lerr != nil {
		return local.Stats{}, lerr
	}
	return stats, err
}

// runSliced drives a large execution through one lane in bounded time
// slices, so with a single worker a huge graph still cannot hold the lane
// hostage between slices. The slices run a one-block Exec, the sequential
// engine's — full sequential speed, none of the sharded structure's
// per-message overhead, which a single lane could never amortize.
func (p *Pool) runSliced(ctx context.Context, t *local.Topology, f local.Factory, opts *local.Options) (local.Stats, error) {
	var x *local.Exec
	if err := p.onLane(ctx, func() { x = local.Prepare(t, f, opts, 1, nil) }); err != nil {
		return local.Stats{}, err
	}
	for !x.Done() {
		if err := p.onLane(ctx, func() { x.Rounds(p.slice) }); err != nil {
			// The abandoned slice may still be running (or queued): x must
			// not be touched again. Partial stats on the error path are
			// engine-specific anyway.
			return local.Stats{}, err
		}
	}
	return x.Stats()
}

// runFanout drives a large execution by fanning each round's per-shard
// phase work across the lanes: pure coordination on a driver goroutine, the
// shard work on the lanes, interleaved FIFO with every other job's tasks.
//
// The job waits on the driver OR its ctx: if the deadline expires while the
// driver's phase tasks are still queued behind busy lanes, the job returns
// promptly and the driver is abandoned — it halts by itself at its next
// round through the Interrupt hook, draining whatever tasks it already
// enqueued. Abandoned drivers are tracked (p.drivers) so Close never closes
// the task channel under a late Execute.
func (p *Pool) runFanout(ctx context.Context, t *local.Topology, f local.Factory, opts *local.Options) (local.Stats, error) {
	type result struct {
		stats local.Stats
		err   error
	}
	done := make(chan result, 1)
	p.drivers.Add(1)
	go func() {
		defer p.drivers.Done()
		defer func() {
			if r := recover(); r != nil {
				done <- result{err: fmt.Errorf("%w: %v", local.ErrPanic, r)}
			}
		}()
		x := local.Prepare(t, f, opts, p.workers, p)
		for !x.Round(p) {
		}
		stats, err := x.Stats()
		done <- result{stats, err}
	}()
	select {
	case r := <-done:
		return r.stats, r.err
	case <-ctx.Done():
		return local.Stats{}, ctx.Err()
	}
}

// onLane runs fn as one task on a lane and waits for it — or for ctx, so a
// job whose deadline expires while its task is still queued behind other
// work returns promptly instead of overstaying by the queue's depth. An
// abandoned task still runs when its turn comes (its caller is gone, so
// nobody reads what it writes — callers must not touch closure state after
// a ctx error); it aborts within about one round through the Interrupt
// seam threaded into its opts.
//
// A panic in fn is converted into the job's error instead of unwinding the
// lane goroutine: one tenant's invariant violation must not crash the
// process every other tenant shares.
func (p *Pool) onLane(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	var panicked error
	select {
	case p.tasks <- func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				panicked = fmt.Errorf("%w: %v", local.ErrPanic, r)
			}
		}()
		fn()
	}:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-done:
		return panicked
	case <-ctx.Done():
		return ctx.Err()
	}
}
