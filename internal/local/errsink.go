package local

import "sync"

// ErrorSink records the first error reported by any entity of a protocol.
// Protocols cannot return errors from Send/Receive (a distributed algorithm
// has no global error channel), so algorithm packages pass a shared sink into
// every per-entity instance and check it after the run. Safe for concurrent
// use by the sharded engine's parallel shards.
type ErrorSink struct {
	mu  sync.Mutex
	err error
}

// Set records err if it is the first one.
func (s *ErrorSink) Set(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err returns the first recorded error, if any.
func (s *ErrorSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
