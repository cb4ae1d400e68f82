package hot

// Tick is marked; the allocation it pays for hides two calls down.
//
//distec:hotpath
func (s *State) Tick(r int) {
	s.note(r) // want "call to note in hot path transitively reaches fmt.Sprintf"
}

// note relays into the formatting helper — unmarked, so only the
// transitive walk connects it to Tick.
func (s *State) note(r int) {
	_ = Helper(r)
}

// Advance is marked; the channel it pays for is made one call down, the
// shape of a wake-up channel renewed on every advance.
//
//distec:hotpath
func (s *State) Advance() {
	s.renew() // want "call to renew in hot path transitively reaches channel allocation"
}

func (s *State) renew() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// cycleA and cycleB recurse mutually: the callee summary must terminate.
func cycleA(n int) int {
	if n <= 0 {
		return 0
	}
	return cycleB(n - 1)
}

func cycleB(n int) int {
	return cycleA(n)
}

// Spin is marked and only reaches arithmetic through the cycle — clean.
//
//distec:hotpath
func Spin(n int) int {
	return cycleA(n)
}

// warm allocates its map once behind a sync.Once in the real pattern;
// the hot caller justifies the edge at the call site.
func warm() map[int]bool {
	m := map[int]bool{}
	return m
}

// Prime is marked and calls the allocating helper with justification.
//
//distec:hotpath
func Prime() {
	//distec:nolint hotpath
	_ = warm()
}
