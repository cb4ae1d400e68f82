package hot

import (
	"fmt"

	"distecvet.example/stubs/trace"
)

// State is a per-round accumulator.
type State struct {
	span *trace.Span
	buf  []int
	wake chan struct{}
}

// Round is the per-round body, with one of everything the analyzer
// rejects.
//
//distec:hotpath
func (s *State) Round(r int) {
	fmt.Println("round", r) // want "fmt.Println in hot path"
	s.span.Round(r)         // want "unguarded tracer call s.span.Round"
	seen := map[int]bool{}  // want "map literal in hot path"
	_ = seen
	fresh := append(s.buf, r) // want "append to fresh slice in hot path"
	_ = fresh
	f := func() int { return r } // want "closure capturing r in hot path"
	_ = f()
	done := make(chan struct{}) // want "channel allocated in hot path"
	close(done)
}
