package lockio

// Calls in a statement's expression positions run under the lock as much
// as calls in its body: a switch tag, a case expression, a select's comm
// statement, and a type switch's init and guard.

// SyncTag switches on an fsync's result.
func (s *Store) SyncTag() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.f.Sync() { // want "blocking I/O \\(os.File.Sync\\) while s.mu is held"
	case nil:
	}
}

// SyncCase fsyncs in a case expression.
func (s *Store) SyncCase(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch err {
	case s.f.Sync(): // want "blocking I/O \\(os.File.Sync\\) while s.mu is held"
	}
}

// SyncComm sends an fsync's result from a select.
func (s *Store) SyncComm(out chan error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case out <- s.f.Sync(): // want "blocking I/O \\(os.File.Sync\\) while s.mu is held"
	default:
	}
}

// SyncTypeInit fsyncs in a type switch's init statement.
func (s *Store) SyncTypeInit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch err := s.f.Sync(); err.(type) { // want "blocking I/O \\(os.File.Sync\\) while s.mu is held"
	case nil:
	}
}

// SyncTypeGuard fsyncs in a type switch's guard.
func (s *Store) SyncTypeGuard() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.f.Sync().(type) { // want "blocking I/O \\(os.File.Sync\\) while s.mu is held"
	case nil:
	}
}
