package local

import (
	"errors"
	"slices"
	"testing"

	"github.com/distec/distec/internal/graph"
)

// floodMax is a test protocol: every entity broadcasts the largest entity
// index it has seen for a fixed number of rounds, then halts. On a connected
// topology with rounds ≥ diameter every entity learns the global maximum.
type floodMax struct {
	v      View
	rounds int
	best   int
	out    []int // result sink, indexed by entity (each writes only its own)
}

func (f *floodMax) Send(r int) []Message {
	msgs := make([]Message, f.v.Degree)
	for p := range msgs {
		msgs[p] = f.best
	}
	return msgs
}

func (f *floodMax) Receive(r int, inbox []Message) bool {
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

func floodFactory(rounds int, out []int) Factory {
	return func(v View) Protocol {
		return &floodMax{v: v, rounds: rounds, best: v.Index, out: out}
	}
}

func TestTopologyFromGraphValid(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(10), graph.Star(8), graph.Complete(6),
		graph.Grid(4, 5), graph.RandomRegular(30, 4, 1), graph.Path(2),
	} {
		tp := FromGraph(g)
		if err := tp.Validate(); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if tp.N() != g.N() {
			t.Fatalf("entity count %d != n %d", tp.N(), g.N())
		}
		if tp.MaxDeg != g.MaxDegree() {
			t.Fatalf("MaxDeg %d != Δ %d", tp.MaxDeg, g.MaxDegree())
		}
	}
}

func TestEdgeConflictValid(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(9), graph.Star(8), graph.Complete(6),
		graph.Grid(3, 4), graph.RandomRegular(24, 5, 2), graph.Path(3),
	} {
		tp := EdgeConflict(g)
		if err := tp.Validate(); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if tp.N() != g.M() {
			t.Fatalf("entity count %d != m %d", tp.N(), g.M())
		}
		if tp.MaxDeg != g.MaxEdgeDegree() {
			t.Fatalf("MaxDeg %d != Δ̄ %d", tp.MaxDeg, g.MaxEdgeDegree())
		}
		for e := 0; e < tp.N(); e++ {
			if d := g.EdgeDegree(graph.EdgeID(e)); tp.Degree(e) != d {
				t.Fatalf("edge %d: %d ports, EdgeDegree %d", e, tp.Degree(e), d)
			}
		}
	}
}

// TestEdgeConflictPortStructure verifies the documented port layout of
// the edge topology: the neighbor on port p shares the endpoint the port
// passes through and sits at the matching position of that endpoint's
// incidence list (the first endpoint's other edges first, then the
// second's).
func TestEdgeConflictPortStructure(t *testing.T) {
	g := graph.RandomRegular(20, 4, 7)
	tp := EdgeConflict(g)
	for e := 0; e < tp.N(); e++ {
		u, v := g.Endpoints(graph.EdgeID(e))
		var want []int32
		for _, s := range []int{u, v} {
			for _, f := range g.Incident(s) {
				if int(f) != e {
					want = append(want, int32(f))
				}
			}
		}
		if !slices.Equal(tp.Ports[e], want) {
			t.Fatalf("edge %d: ports %v, want the incidence order %v", e, tp.Ports[e], want)
		}
	}
}

func TestFloodMax(t *testing.T) {
	g := graph.RandomRegular(40, 3, 3)
	tp := FromGraph(g)
	rounds := 40 // ≥ diameter

	out := make([]int, tp.N())
	stats, err := Sequential.Run(tp, floodFactory(rounds, out), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != tp.N()-1 {
			t.Fatalf("entity %d learned max %d, want %d", i, out[i], tp.N()-1)
		}
	}
	// Every entity sends on every port in every round, and all halt together.
	if want := (Stats{Rounds: rounds, Messages: int64(rounds * 2 * g.M())}); stats != want {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
}

// portEcho verifies the Back-pointer wiring: each entity sends its own index
// on every port and checks that what it receives on port p is exactly the
// index of the neighbor that port p points to.
type portEcho struct {
	v        View
	expected []int32
	t        *testing.T
}

func (pe *portEcho) Send(r int) []Message {
	msgs := make([]Message, pe.v.Degree)
	for p := range msgs {
		msgs[p] = pe.v.Index
	}
	return msgs
}

func (pe *portEcho) Receive(r int, inbox []Message) bool {
	for p, m := range inbox {
		if m == nil {
			pe.t.Errorf("entity %d port %d: no message", pe.v.Index, p)
			continue
		}
		if got := m.(int); got != int(pe.expected[p]) {
			pe.t.Errorf("entity %d port %d: got %d, want %d", pe.v.Index, p, got, pe.expected[p])
		}
	}
	return true
}

func TestPortWiring(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Star(6), graph.Complete(5), graph.Grid(3, 3)} {
		for _, tp := range []*Topology{FromGraph(g), EdgeConflict(g)} {
			f := func(v View) Protocol {
				return &portEcho{v: v, expected: tp.Ports[v.Index], t: t}
			}
			if _, err := Sequential.Run(tp, f, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// neverHalt exercises the round limit.
type neverHalt struct{ v View }

func (nh *neverHalt) Send(r int) []Message        { return nil }
func (nh *neverHalt) Receive(int, []Message) bool { return false }
func neverFactory(v View) Protocol                { return &neverHalt{v: v} }

func TestRoundLimit(t *testing.T) {
	tp := FromGraph(graph.Cycle(4))
	opts := &Options{MaxRounds: 10}
	stats, err := Sequential.Run(tp, neverFactory, opts)
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if stats.Rounds != 10 {
		t.Fatalf("rounds = %d, want 10", stats.Rounds)
	}
}

func TestShardedRoundLimit(t *testing.T) {
	tp := FromGraph(graph.Cycle(4))
	for _, shards := range []int{1, 2, 4} {
		stats, err := Sharded(shards).Run(tp, neverFactory, &Options{MaxRounds: 10})
		if !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("shards=%d: err = %v, want ErrRoundLimit", shards, err)
		}
		if stats.Rounds != 10 {
			t.Fatalf("shards=%d: rounds = %d, want 10", shards, stats.Rounds)
		}
	}
}

// staggeredHalt halts entity i after i+1 rounds, exercising the engines'
// handling of messages arriving at already-halted entities.
type staggeredHalt struct{ v View }

func (s *staggeredHalt) Send(r int) []Message {
	msgs := make([]Message, s.v.Degree)
	for p := range msgs {
		msgs[p] = r
	}
	return msgs
}

func (s *staggeredHalt) Receive(r int, inbox []Message) bool {
	return r > s.v.Index
}

func TestStaggeredHalting(t *testing.T) {
	tp := FromGraph(graph.Complete(8))
	f := func(v View) Protocol { return &staggeredHalt{v: v} }
	stats, err := Sequential.Run(tp, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Entity i sends on its 7 ports in rounds 1..i+1; the last halts after
	// round 8.
	if want := (Stats{Rounds: 8, Messages: 7 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)}); stats != want {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
}

func TestEmptyTopology(t *testing.T) {
	g := graph.New(5) // nodes, no edges
	tp := EdgeConflict(g)
	stats, err := Sequential.Run(tp, neverFactory, &Options{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats != (Stats{}) {
		t.Fatalf("stats = %+v, want zero", stats)
	}
}

func TestShardedEmptyTopology(t *testing.T) {
	tp := EdgeConflict(graph.New(5)) // nodes, no edges
	stats, err := Sharded(0).Run(tp, neverFactory, &Options{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats != (Stats{}) {
		t.Fatalf("stats = %+v, want zero", stats)
	}
}

func TestSendLengthMismatchRejected(t *testing.T) {
	tp := FromGraph(graph.Cycle(4))
	bad := func(v View) Protocol { return badSender{} }
	if _, err := Sequential.Run(tp, bad, nil); err == nil {
		t.Fatal("accepted wrong outbox length")
	}
}

type badSender struct{}

func (badSender) Send(r int) []Message        { return make([]Message, 1) }
func (badSender) Receive(int, []Message) bool { return false }
