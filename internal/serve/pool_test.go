package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/trace"
)

// floodMax broadcasts the largest index seen for a fixed number of rounds.
type floodMax struct {
	v      local.View
	rounds int
	best   int
	out    []int
}

func (f *floodMax) Send(r int) []local.Message {
	msgs := make([]local.Message, f.v.Degree)
	for p := range msgs {
		msgs[p] = f.best
	}
	return msgs
}

func (f *floodMax) Receive(r int, inbox []local.Message) bool {
	for _, m := range inbox {
		if m == nil {
			continue
		}
		if x := m.(int); x > f.best {
			f.best = x
		}
	}
	if r >= f.rounds {
		f.out[f.v.Index] = f.best
		return true
	}
	return false
}

func floodFactory(rounds int, out []int) local.Factory {
	return func(v local.View) local.Protocol {
		return &floodMax{v: v, rounds: rounds, best: v.Index, out: out}
	}
}

type neverHalt struct{ v local.View }

func (p *neverHalt) Send(r int) []local.Message {
	msgs := make([]local.Message, p.v.Degree)
	for i := range msgs {
		msgs[i] = r
	}
	return msgs
}
func (p *neverHalt) Receive(int, []local.Message) bool { return false }

// runOnPool executes one flood job through the pool and returns its output
// and stats.
func runOnPool(t *testing.T, p *Pool, tp *local.Topology, rounds int) ([]int, local.Stats) {
	t.Helper()
	out := make([]int, tp.N())
	var stats local.Stats
	err := p.Do(context.Background(), func(eng local.Engine) error {
		var err error
		stats, err = eng.Run(tp, floodFactory(rounds, out), nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

// TestPoolRoutesMatchSequential pins every routing path — sequential fast
// path, sliced single lane, fanned-out lanes — to bit-identical results.
func TestPoolRoutesMatchSequential(t *testing.T) {
	topologies := []*local.Topology{
		local.FromGraph(graph.Complete(12)),
		local.EdgeConflict(graph.Cycle(40)),
		local.EdgeConflict(graph.RandomRegular(48, 4, 3)),
	}
	configs := []struct {
		o     Options
		slice time.Duration
	}{
		{o: Options{Workers: 1}},                           // everything sequential (small topologies)
		{o: Options{Workers: 1, SmallJob: -1}},             // force the sliced route
		{o: Options{Workers: 3, SmallJob: -1}},             // force the fanout route
		{o: Options{Workers: 1, SmallJob: -1}, slice: 100}, // absurdly small slice: one round per slice
	}
	for _, tp := range topologies {
		want := make([]int, tp.N())
		wantStats, err := local.Sequential.Run(tp, floodFactory(24, want), nil)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range configs {
			p := New(c.o)
			if c.slice > 0 {
				p.slice = c.slice
			}
			got, gotStats := runOnPool(t, p, tp, 24)
			p.Close()
			if gotStats != wantStats {
				t.Fatalf("config %d: stats %+v, want %+v", ci, gotStats, wantStats)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("config %d entity %d: got %d, want %d", ci, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardedTraceSpans pins what a traced execution reports on each of
// the round loop's drivers: the sharded engine's Run names its span after
// the engine ("sharded-3") and a pool fan-out job "sharded", both with one
// busy time per shard on every round; a single-lane sliced job runs one
// block, named "sequential" like the sequential engine, with none.
func TestShardedTraceSpans(t *testing.T) {
	tp := local.EdgeConflict(graph.RandomRegular(48, 4, 3))
	p := New(Options{Workers: 3, SmallJob: -1})
	defer p.Close()
	sliced := New(Options{Workers: 1, SmallJob: -1})
	defer sliced.Close()
	const rounds = 6
	onPool := func(p *Pool) func(opts *local.Options) error {
		return func(opts *local.Options) error {
			return p.Do(context.Background(), func(eng local.Engine) error {
				_, err := eng.Run(tp, floodFactory(rounds, make([]int, tp.N())), opts)
				return err
			})
		}
	}
	for _, c := range []struct {
		engine string
		busy   int
		run    func(opts *local.Options) error
	}{
		{"sharded-3", 3, func(opts *local.Options) error {
			_, err := local.Sharded(3).Run(tp, floodFactory(rounds, make([]int, tp.N())), opts)
			return err
		}},
		{"sharded", 3, onPool(p)},
		{"sequential", 0, onPool(sliced)},
	} {
		tr := trace.New()
		if err := c.run(&local.Options{Trace: tr}); err != nil {
			t.Fatalf("%s: %v", c.engine, err)
		}
		spans := tr.Spans()
		if len(spans) != 1 || spans[0].Engine != c.engine {
			t.Fatalf("%s: spans %+v, want one from engine %q", c.engine, spans, c.engine)
		}
		if len(spans[0].Rounds) != rounds {
			t.Fatalf("%s: %d round events, want %d", c.engine, len(spans[0].Rounds), rounds)
		}
		for _, ev := range spans[0].Rounds {
			if len(ev.ShardBusy) != c.busy {
				t.Fatalf("%s round %d: %d shard busy times, want %d", c.engine, ev.Round, len(ev.ShardBusy), c.busy)
			}
		}
	}
}

// TestPoolRoutingCounters checks the route decision itself: small runs hit
// the sequential lane, large runs the sliced or fanned path.
func TestPoolRoutingCounters(t *testing.T) {
	tp := local.EdgeConflict(graph.Cycle(50))

	p := New(Options{Workers: 1, SmallJob: 10})
	runOnPool(t, p, tp, 4)
	if s := p.Stats(); s.SlicedRuns != 1 || s.SequentialRuns != 0 {
		t.Fatalf("1 worker, large run: %+v", s)
	}
	p.Close()

	p = New(Options{Workers: 2, SmallJob: 10})
	runOnPool(t, p, tp, 4)
	if s := p.Stats(); s.FanoutRuns != 1 || s.SequentialRuns != 0 {
		t.Fatalf("2 workers, large run: %+v", s)
	}
	p.Close()

	p = New(Options{Workers: 2, SmallJob: 1 << 20})
	runOnPool(t, p, tp, 4)
	if s := p.Stats(); s.SequentialRuns != 1 || s.FanoutRuns != 0 || s.SlicedRuns != 0 {
		t.Fatalf("small run: %+v", s)
	}
	p.Close()
}

// TestPoolConcurrentJobs pushes 48 simultaneous flood jobs of mixed sizes
// through one pool and checks every result (the -race companion to the
// public stress test at the repository root).
func TestPoolConcurrentJobs(t *testing.T) {
	p := New(Options{Workers: 3, QueueDepth: 16, SmallJob: 60})
	defer p.Close()
	graphs := []*graph.Graph{
		graph.Cycle(20), graph.Complete(9), graph.RandomRegular(36, 4, 1),
		graph.Cycle(120), graph.RandomRegular(80, 6, 2),
	}
	const jobs = 48
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	outs := make([][]int, jobs)
	tps := make([]*local.Topology, jobs)
	for j := 0; j < jobs; j++ {
		tps[j] = local.EdgeConflict(graphs[j%len(graphs)])
		outs[j] = make([]int, tps[j].N())
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			errs[j] = p.Do(context.Background(), func(eng local.Engine) error {
				_, err := eng.Run(tps[j], floodFactory(16, outs[j]), nil)
				return err
			})
		}(j)
	}
	wg.Wait()
	for j := 0; j < jobs; j++ {
		if errs[j] != nil {
			t.Fatalf("job %d: %v", j, errs[j])
		}
		want := make([]int, tps[j].N())
		if _, err := local.Sequential.Run(tps[j], floodFactory(16, want), nil); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if outs[j][i] != want[i] {
				t.Fatalf("job %d entity %d: got %d, want %d", j, i, outs[j][i], want[i])
			}
		}
	}
	s := p.Stats()
	if s.Completed != jobs || s.Submitted != jobs {
		t.Fatalf("stats: %+v", s)
	}
	if s.LatencyP50 <= 0 || s.LatencyP99 < s.LatencyP50 {
		t.Fatalf("latency quantiles: p50=%v p99=%v", s.LatencyP50, s.LatencyP99)
	}
	if s.Rounds <= 0 || s.Messages <= 0 {
		t.Fatalf("cost totals: %+v", s)
	}
}

// TestPoolCancellation covers all three abort points: mid-run cancel on
// every route, deadline expiry, and cancellation while queued.
func TestPoolCancellation(t *testing.T) {
	never := func(v local.View) local.Protocol { return &neverHalt{v: v} }
	for _, o := range []Options{
		{Workers: 1, SmallJob: 1 << 20}, // sequential route
		{Workers: 1, SmallJob: -1},      // sliced route
		{Workers: 2, SmallJob: -1},      // fanout route
	} {
		p := New(o)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		err := p.Do(ctx, func(eng local.Engine) error {
			_, err := eng.Run(local.EdgeConflict(graph.Cycle(64)), never, nil)
			return err
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: err = %v, want context.Canceled", o, err)
		}
		if s := p.Stats(); s.Cancelled != 1 {
			t.Fatalf("%+v: stats %+v, want 1 cancelled", o, s)
		}
		p.Close()
	}

	p := New(Options{Workers: 1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := p.Do(ctx, func(eng local.Engine) error {
		_, err := eng.Run(local.EdgeConflict(graph.Cycle(64)), never, nil)
		return err
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: err = %v", err)
	}
}

// TestPoolAdmissionBackpressure checks that QueueDepth bounds in-flight
// jobs and that a queued job honors its context.
func TestPoolAdmissionBackpressure(t *testing.T) {
	p := New(Options{Workers: 1, QueueDepth: 1})
	defer p.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Do(context.Background(), func(local.Engine) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Do(ctx, func(local.Engine) error { return nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued job: err = %v, want deadline exceeded while waiting", err)
	}
	close(release)
	wg.Wait()
	s := p.Stats()
	if s.Completed != 1 || s.Cancelled != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestPoolQueuedJobHonorsDeadline checks that a job whose task is stuck
// behind a long-running lane task returns at its deadline instead of
// waiting for the lane to free up.
func TestPoolQueuedJobHonorsDeadline(t *testing.T) {
	p := New(Options{Workers: 1, QueueDepth: 4})
	defer p.Close()
	never := func(v local.View) local.Protocol { return &neverHalt{v: v} }

	hogCtx, stopHog := context.WithCancel(context.Background())
	hogDone := make(chan error, 1)
	go func() {
		hogDone <- p.Do(hogCtx, func(eng local.Engine) error {
			_, err := eng.Run(local.EdgeConflict(graph.Cycle(32)), never, nil)
			return err
		})
	}()
	time.Sleep(20 * time.Millisecond) // the hog now owns the single lane

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.Do(ctx, func(eng local.Engine) error {
		_, err := eng.Run(local.FromGraph(graph.Cycle(8)), never, nil)
		return err
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued job: err = %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("queued job overstayed its 30ms deadline by %v", waited)
	}
	stopHog()
	if err := <-hogDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("hog: err = %v", err)
	}
}

func TestPoolClose(t *testing.T) {
	p := New(Options{Workers: 2})
	if err := p.Do(context.Background(), func(eng local.Engine) error {
		if eng.Name() != "serve" {
			return fmt.Errorf("engine name %q", eng.Name())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if err := p.Do(context.Background(), func(local.Engine) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close: %v", err)
	}
}

// panicky violates an invariant mid-protocol: the pool must convert that
// into a job error, not crash the shared process.
type panicky struct{ v local.View }

func (p *panicky) Send(r int) []local.Message        { panic("protocol invariant violated") }
func (p *panicky) Receive(int, []local.Message) bool { return true }

// TestPoolPanicIsolation checks that a panicking protocol fails only its
// own job on every route, and that a panicking job fn cannot leak
// admission slots or deadlock Close.
func TestPoolPanicIsolation(t *testing.T) {
	for _, o := range []Options{
		{Workers: 1, SmallJob: 1 << 20}, // sequential lane
		{Workers: 1, SmallJob: -1},      // sliced
		{Workers: 2, SmallJob: -1},      // fanout
	} {
		p := New(o)
		err := p.Do(context.Background(), func(eng local.Engine) error {
			_, err := eng.Run(local.FromGraph(graph.Cycle(16)), func(v local.View) local.Protocol { return &panicky{v: v} }, nil)
			return err
		})
		if err == nil {
			t.Fatalf("%+v: protocol panic did not surface as an error", o)
		}
		// The pool must still serve after one tenant's panic.
		runOnPool(t, p, local.FromGraph(graph.Complete(6)), 4)
		if s := p.Stats(); s.Failed != 1 || s.Completed != 1 {
			t.Fatalf("%+v: stats %+v", o, s)
		}
		p.Close()
	}

	// A panic in fn itself unwinds through Do; the accounting must survive
	// so the slot is released and Close does not deadlock.
	p := New(Options{Workers: 1, QueueDepth: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Do swallowed the fn panic")
			}
		}()
		p.Do(context.Background(), func(local.Engine) error { panic("job body panic") })
	}()
	if err := p.Do(context.Background(), func(local.Engine) error { return nil }); err != nil {
		t.Fatalf("pool unusable after fn panic: %v", err)
	}
	if s := p.Stats(); s.Failed != 1 || s.Completed != 1 || s.Running != 0 {
		t.Fatalf("stats after fn panic: %+v", s)
	}
	p.Close() // must not deadlock
}

// TestPoolJobError checks that a protocol error surfaces to the caller and
// counts as failed.
func TestPoolJobError(t *testing.T) {
	p := New(Options{Workers: 1})
	defer p.Close()
	err := p.Do(context.Background(), func(eng local.Engine) error {
		_, err := eng.Run(local.FromGraph(graph.Cycle(8)), func(v local.View) local.Protocol { return &neverHalt{v: v} }, &local.Options{MaxRounds: 5})
		return err
	})
	if !errors.Is(err, local.ErrRoundLimit) {
		t.Fatalf("err = %v, want round limit", err)
	}
	if s := p.Stats(); s.Failed != 1 {
		t.Fatalf("stats: %+v", s)
	}
}
