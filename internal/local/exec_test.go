package local_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/local"
)

// laneExecutor runs tasks on a fixed pool of worker goroutines, the shape
// internal/serve feeds an Exec from.
type laneExecutor struct {
	tasks chan func()
	done  chan struct{}
}

func newLaneExecutor(workers int) *laneExecutor {
	e := &laneExecutor{tasks: make(chan func(), 64), done: make(chan struct{})}
	for i := 0; i < workers; i++ {
		go func() {
			for t := range e.tasks {
				t()
			}
		}()
	}
	return e
}

func (e *laneExecutor) Execute(task func()) { e.tasks <- task }
func (e *laneExecutor) Close()              { close(e.tasks) }

// drive runs an Exec to completion through the given executor.
func drive(x *local.Exec, exec local.Executor) (local.Stats, error) {
	for !x.Round(exec) {
	}
	return x.Stats()
}

// TestExecMatchesSequential drives the step scheduler over the same protocol
// matrix as the Run tests and demands bit-identical results and stats, for
// inline execution, fresh-goroutine execution, and a shared lane pool.
func TestExecMatchesSequential(t *testing.T) {
	lanes := newLaneExecutor(3)
	defer lanes.Close()
	execs := map[string]local.Executor{"inline": nil, "go": local.GoExecutor, "lanes": lanes}
	for _, g := range []*graph.Graph{
		graph.Cycle(30), graph.Star(17), graph.Complete(12), graph.RandomRegular(48, 4, 3),
	} {
		for _, tp := range []*local.Topology{local.FromGraph(g), local.EdgeConflict(g)} {
			rounds := 40
			want := make([]int, tp.N())
			f := func(out []int) local.Factory {
				return func(v local.View) local.Protocol {
					return &floodMax{v: v, rounds: rounds, best: v.Index, out: out}
				}
			}
			wantStats, err := local.Sequential.Run(tp, f(want), nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, exec := range execs {
				for _, shards := range shardCounts(tp.N()) {
					got := make([]int, tp.N())
					x := local.Prepare(tp, f(got), nil, shards, exec)
					gotStats, err := drive(x, exec)
					if err != nil {
						t.Fatalf("%s shards=%d: %v", name, shards, err)
					}
					if gotStats != wantStats {
						t.Fatalf("%s shards=%d: stats %+v, want %+v", name, shards, gotStats, wantStats)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s shards=%d entity %d: got %d, want %d", name, shards, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// stepEngine runs every execution through Prepare with four shards,
// driven on fresh goroutines.
type stepEngine struct{}

func (stepEngine) Name() string { return "exec-4" }

func (stepEngine) Run(tp *local.Topology, f local.Factory, opts *local.Options) (local.Stats, error) {
	return drive(local.Prepare(tp, f, opts, 4, local.GoExecutor), local.GoExecutor)
}

// TestExecSleeperAndLinial covers the sleeper fast path and a real protocol
// through the step scheduler.
func TestExecSleeperAndLinial(t *testing.T) {
	tp := local.FromGraph(graph.Complete(9))
	f := func(out []int) local.Factory {
		return func(v local.View) local.Protocol { return &sleepy{v: v, out: out} }
	}
	want := make([]int, tp.N())
	wantStats, err := local.Sequential.Run(tp, f(want), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts(tp.N()) {
		got := make([]int, tp.N())
		gotStats, err := drive(local.Prepare(tp, f(got), nil, shards, local.GoExecutor), local.GoExecutor)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if gotStats != wantStats {
			t.Fatalf("shards=%d: stats %+v, want %+v", shards, gotStats, wantStats)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d entity %d: heard %d, want %d", shards, i, got[i], want[i])
			}
		}
	}

	g := graph.RandomRegular(60, 4, 11)
	ec := local.EdgeConflict(g)
	init := make([]int, ec.N())
	for i := range init {
		init[i] = i
	}
	wantC, wantS, err := linial.Reduce(ec, init, ec.N(), local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	gotC, gotS, err := linial.Reduce(ec, init, ec.N(), stepEngine{})
	if err != nil {
		t.Fatal(err)
	}
	if gotS != wantS {
		t.Fatalf("stats %+v, want %+v", gotS, wantS)
	}
	for i := range wantC {
		if gotC[i] != wantC[i] {
			t.Fatalf("entity %d: color %d, want %d", i, gotC[i], wantC[i])
		}
	}
}

func TestExecRoundLimitAndErrors(t *testing.T) {
	tp := local.FromGraph(graph.Cycle(4))
	for _, shards := range []int{1, 2} {
		x := local.Prepare(tp, neverFactory, &local.Options{MaxRounds: 10}, shards, nil)
		stats, err := drive(x, nil)
		if !errors.Is(err, local.ErrRoundLimit) {
			t.Fatalf("shards=%d: err = %v, want ErrRoundLimit", shards, err)
		}
		if stats.Rounds != 10 {
			t.Fatalf("shards=%d: rounds = %d, want 10", shards, stats.Rounds)
		}
		if !x.Round(nil) || !x.Done() {
			t.Fatalf("shards=%d: finished Exec must stay finished", shards)
		}
	}

	bad := local.FromGraph(graph.Complete(8))
	for _, shards := range []int{1, 3, 8} {
		_, err := drive(local.Prepare(bad, func(local.View) local.Protocol { return badSender{} }, nil, shards, local.GoExecutor), local.GoExecutor)
		if err == nil {
			t.Fatalf("shards=%d: accepted wrong outbox length", shards)
		}
		if !strings.Contains(err.Error(), "entity 0 ") {
			t.Fatalf("shards=%d: error %q does not blame the lowest entity", shards, err)
		}
	}
}

func TestExecEmptyTopology(t *testing.T) {
	x := local.Prepare(local.EdgeConflict(graph.New(5)), neverFactory, nil, 4, nil)
	if !x.Done() {
		t.Fatal("empty topology should be done immediately")
	}
	if stats, err := x.Stats(); err != nil || stats != (local.Stats{}) {
		t.Fatalf("stats = %+v, %v; want zero, nil", stats, err)
	}
}

// TestExecStatsBetweenRounds reads Stats before and between rounds: the
// messages of the rounds run so far are counted, and the final Stats add
// up the rest.
func TestExecStatsBetweenRounds(t *testing.T) {
	tp := local.FromGraph(graph.Cycle(6))
	out := make([]int, tp.N())
	x := local.Prepare(tp, func(v local.View) local.Protocol {
		return &floodMax{v: v, rounds: 3, best: v.Index, out: out}
	}, nil, 2, nil)
	if stats, err := x.Stats(); err != nil || stats != (local.Stats{}) {
		t.Fatalf("before round 1: stats %+v, %v; want zero, nil", stats, err)
	}
	for r := 1; r <= 2; r++ {
		x.Round(nil)
		if stats, err := x.Stats(); err != nil || stats != (local.Stats{Rounds: r, Messages: int64(12 * r)}) {
			t.Fatalf("after round %d: stats %+v, %v; want %d rounds and %d messages", r, stats, err, r, 12*r)
		}
	}
	if stats, err := drive(x, nil); err != nil || stats != (local.Stats{Rounds: 3, Messages: 36}) {
		t.Fatalf("final stats %+v, %v; want 3 rounds and 36 messages", stats, err)
	}
}

func TestExecInterrupt(t *testing.T) {
	boom := errors.New("deadline")
	rounds := 0
	opts := &local.Options{Interrupt: func() error {
		rounds++
		if rounds > 3 {
			return boom
		}
		return nil
	}}
	x := local.Prepare(local.FromGraph(graph.Cycle(6)), neverFactory, opts, 2, nil)
	_, err := drive(x, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want interrupt error", err)
	}
	if stats, _ := x.Stats(); stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3 completed before interrupt", stats.Rounds)
	}
}

// TestOneBlockExecInterruptAndLimit steps a one-block Exec — the shape the
// serving layer's single lane runs — until an interrupt and, separately,
// until the round limit stops it.
func TestOneBlockExecInterruptAndLimit(t *testing.T) {
	boom := errors.New("deadline")
	polls := 0
	opts := &local.Options{Interrupt: func() error {
		polls++
		if polls > 3 {
			return boom
		}
		return nil
	}}
	x := local.Prepare(local.FromGraph(graph.Cycle(6)), neverFactory, opts, 1, nil)
	for !x.Round(nil) {
	}
	if stats, err := x.Stats(); !errors.Is(err, boom) || stats.Rounds != 3 {
		t.Fatalf("stats %+v, err %v; want 3 rounds then interrupt", stats, err)
	}

	x = local.Prepare(local.FromGraph(graph.Cycle(6)), neverFactory, &local.Options{MaxRounds: 7}, 1, nil)
	for !x.Round(nil) {
	}
	if stats, err := x.Stats(); !errors.Is(err, local.ErrRoundLimit) || stats.Rounds != 7 {
		t.Fatalf("stats %+v, err %v; want 7 rounds then limit", stats, err)
	}
}

// TestExecRoundsBudget drives a one-block Exec in microscopic time slices
// and demands bit-identical results and stats to the one-call
// Sequential.Run — the property the serving layer's single-lane slicing
// relies on.
func TestExecRoundsBudget(t *testing.T) {
	tp := local.EdgeConflict(graph.Cycle(40))
	f := func(out []int) local.Factory {
		return func(v local.View) local.Protocol {
			return &floodMax{v: v, rounds: 50, best: v.Index, out: out}
		}
	}
	want := make([]int, tp.N())
	wantStats, err := local.Sequential.Run(tp, f(want), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, tp.N())
	x := local.Prepare(tp, f(got), nil, 1, nil)
	slices := 0
	for !x.Rounds(time.Microsecond) {
		slices++
		if slices > 1000 {
			t.Fatal("budget slicing does not terminate")
		}
	}
	gotStats, err := x.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats {
		t.Fatalf("stats %+v, want %+v", gotStats, wantStats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entity %d: %d, want %d", i, got[i], want[i])
		}
	}
	if !x.Rounds(0) || !x.Done() {
		t.Fatal("finished Exec must stay finished")
	}
}

// TestRunInterrupt covers the interrupt seam through the sharded engine's
// Run, inline (one shard) and fanned out.
func TestRunInterrupt(t *testing.T) {
	boom := errors.New("cancelled")
	polls := 0
	opts := &local.Options{Interrupt: func() error {
		polls++
		if polls >= 5 {
			return boom
		}
		return nil
	}}
	for _, shards := range []int{1, 3} {
		polls = 0
		_, err := local.Sharded(shards).Run(local.FromGraph(graph.Cycle(6)), neverFactory, opts)
		if !errors.Is(err, boom) {
			t.Fatalf("shards=%d: err = %v, want interrupt error", shards, err)
		}
	}
}
