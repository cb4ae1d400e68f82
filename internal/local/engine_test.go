package local

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/trace"
)

// TestErrorSinkFirstErrorWins has several entities report errors at once:
// the sink keeps exactly one of them, and a later report does not replace
// it.
func TestErrorSinkFirstErrorWins(t *testing.T) {
	var s ErrorSink
	if s.Err() != nil {
		t.Fatalf("fresh sink holds %v", s.Err())
	}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for k := range errs {
		errs[k] = fmt.Errorf("entity %d", k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Set(errs[k])
		}()
	}
	wg.Wait()
	first := s.Err()
	if !slices.Contains(errs, first) {
		t.Fatalf("sink holds %v, none of the reported errors", first)
	}
	s.Set(errors.New("late"))
	if s.Err() != first {
		t.Fatalf("a later error replaced %v with %v", first, s.Err())
	}
}

// interruptible is an engine with an interrupt hook, as the serving
// layer's job engine has.
type interruptible struct {
	Engine
	err error
}

func (e interruptible) Interrupt() error { return e.err }

// TestTracedEngineForwards checks what the tracing wrapper passes through
// to the engine it wraps: its name, its interrupt hook (a traced Vizing
// job polls its deadline through the wrapper), and span labels.
func TestTracedEngineForwards(t *testing.T) {
	if Traced(Sequential, nil) != Sequential {
		t.Fatal("a nil tracer must leave the engine unchanged")
	}
	tr := trace.New()
	boom := errors.New("deadline")
	e := Traced(interruptible{Sequential, boom}, tr)
	if e.Name() != Sequential.Name() {
		t.Fatalf("traced engine is named %q, want %q", e.Name(), Sequential.Name())
	}
	type interrupter interface{ Interrupt() error }
	if ir, ok := e.(interrupter); !ok || !errors.Is(ir.Interrupt(), boom) {
		t.Fatal("the wrapper does not forward the inner engine's interrupt")
	}
	if err := Traced(Sequential, tr).(interrupter).Interrupt(); err != nil {
		t.Fatalf("an engine without a hook reads as interrupted: %v", err)
	}
	SetSpanLabel(Sequential, "untraced") // a no-op on an untraced engine
	SetSpanLabel(e, "phase")
	if _, err := e.Run(FromGraph(graph.Path(3)), floodFactory(2, make([]int, 3)), nil); err != nil {
		t.Fatal(err)
	}
	if spans := tr.Spans(); len(spans) != 1 || spans[0].Label != "phase" || spans[0].Entities != 3 || len(spans[0].Rounds) != 2 {
		t.Fatalf("spans %+v, want one 3-entity span labeled phase with 2 rounds", spans)
	}
}

// TestTopologyValidateRejects builds one topology for each inconsistency
// Validate reports.
func TestTopologyValidateRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		tp   Topology
		want string
	}{
		{"back-pointer count", Topology{Ports: [][]int32{{1}, {0}}, Back: [][]int32{{0}, {}}}, "back-pointers"},
		{"unknown entity", Topology{Ports: [][]int32{{2}, {}}, Back: [][]int32{{0}, {}}}, "unknown entity"},
		{"bad back-port", Topology{Ports: [][]int32{{1}, {0}}, Back: [][]int32{{1}, {0}}}, "bad back-port"},
		{"asymmetric link", Topology{Ports: [][]int32{{1}, {2}, {1}}, Back: [][]int32{{0}, {0}, {0}}}, "not symmetric"},
	} {
		if err := c.tp.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
