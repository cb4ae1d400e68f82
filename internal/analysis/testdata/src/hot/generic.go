package hot

import "fmt"

// Ring is a generic buffer; the call graph must follow calls into its
// methods although every call site names an instantiation.
type Ring[T any] struct {
	items []T
}

// label formats the ring's size — the allocation a hot caller reaches.
func (g *Ring[T]) label() string {
	return fmt.Sprint(len(g.items))
}

// Flush is marked and calls into the generic method.
//
//distec:hotpath
func (s *State) Flush(g *Ring[int]) {
	_ = g.label() // want "call to label in hot path transitively reaches fmt.Sprint"
}
