package sharded

import (
	"errors"
	"strings"
	"testing"

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
func drive(x *Exec, exec Executor) (local.Stats, error) {
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
	execs := map[string]Executor{"inline": nil, "go": GoExecutor, "lanes": lanes}
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
					x := Prepare(tp, f(got), nil, shards, exec)
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
	return drive(Prepare(tp, f, opts, 4, GoExecutor), GoExecutor)
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
		gotStats, err := drive(Prepare(tp, f(got), nil, shards, GoExecutor), GoExecutor)
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
	x := Prepare(tp, neverFactory, &local.Options{MaxRounds: 10}, 2, nil)
	stats, err := drive(x, nil)
	if !errors.Is(err, local.ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if stats.Rounds != 10 {
		t.Fatalf("rounds = %d, want 10", stats.Rounds)
	}
	if !x.Round(nil) || !x.Done() {
		t.Fatal("finished Exec must stay finished")
	}

	bad := local.FromGraph(graph.Complete(8))
	for _, shards := range []int{1, 3, 8} {
		_, err := drive(Prepare(bad, func(local.View) local.Protocol { return badSender{} }, nil, shards, GoExecutor), GoExecutor)
		if err == nil {
			t.Fatalf("shards=%d: accepted wrong outbox length", shards)
		}
		if !strings.Contains(err.Error(), "entity 0 ") {
			t.Fatalf("shards=%d: error %q does not blame the lowest entity", shards, err)
		}
	}
}

func TestExecEmptyTopology(t *testing.T) {
	x := Prepare(local.EdgeConflict(graph.New(5)), neverFactory, nil, 4, nil)
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
	x := Prepare(tp, func(v local.View) local.Protocol {
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
	x := Prepare(local.FromGraph(graph.Cycle(6)), neverFactory, opts, 2, nil)
	_, err := drive(x, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want interrupt error", err)
	}
	if stats, _ := x.Stats(); stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3 completed before interrupt", stats.Rounds)
	}
}

// TestRunInterrupt covers the interrupt seam through Engine.Run, inline
// (one shard) and fanned out.
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
		_, err := New(Config{Shards: shards}).Run(local.FromGraph(graph.Cycle(6)), neverFactory, opts)
		if !errors.Is(err, boom) {
			t.Fatalf("shards=%d: err = %v, want interrupt error", shards, err)
		}
	}
}
