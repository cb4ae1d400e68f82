// Package heldlock pins the held-lock model lockio and lockorder share:
// each function is one shape of the walk, and both analyzers must read
// it the same way.
package heldlock

import (
	"os"
	"sync"
)

// Table's mutex is a read/write lock; Index and Log hold plain ones.
type Table struct {
	mu sync.RWMutex
	f  *os.File
}

type Index struct{ mu sync.Mutex }

type Log struct {
	mu sync.Mutex
	f  *os.File
}

// EarlyExit unlocks on a branch that returns. The walk does not follow
// the return, so t.mu still counts as held after the if: taking ix.mu
// is an edge Table -> Index, and the fsync is blocking I/O under t.mu.
func EarlyExit(t *Table, ix *Index, skip bool) error {
	t.mu.Lock()
	if skip {
		t.mu.Unlock()
		return nil
	}
	ix.mu.Lock() // want "lock-order cycle: \\(heldlock.Index\\).mu is acquired while \\(heldlock.Table\\).mu is held"
	ix.mu.Unlock()
	err := t.f.Sync() // want "blocking I/O \\(os.File.Sync\\) while t.mu is held"
	t.mu.Unlock()
	return err
}

// ReadUnderIndex read-locks t.mu inside ix.mu. RLock counts as Lock: it
// closes the cycle with EarlyExit, and the write under it is blocking
// I/O while t.mu, the innermost lock, is held.
func ReadUnderIndex(t *Table, ix *Index, p []byte) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	t.mu.RLock() // want "lock-order cycle: \\(heldlock.Table\\).mu is acquired while \\(heldlock.Index\\).mu is held"
	defer t.mu.RUnlock()
	_, err := t.f.Write(p) // want "blocking I/O \\(os.File.Write\\) while t.mu is held"
	return err
}

// Spawn starts goroutines while it holds ix.mu. A goroutine holds none
// of its spawner's locks: no fsync below runs under ix.mu, and lg.mu is
// never taken inside ix.mu, so LogThenIndex's order closes no cycle.
func Spawn(ix *Index, lg *Log) {
	ix.mu.Lock()
	go func() {
		lg.mu.Lock()
		lg.mu.Unlock()
		_ = lg.f.Sync()
	}()
	go lg.sync()
	ix.mu.Unlock()
}

func (lg *Log) sync() error { return lg.f.Sync() }

// LogThenIndex takes ix.mu inside lg.mu: an edge Log -> Index.
func LogThenIndex(ix *Index, lg *Log) {
	lg.mu.Lock()
	ix.mu.Lock()
	ix.mu.Unlock()
	lg.mu.Unlock()
}
