// Package sharded implements the parallel execution engine for LOCAL
// protocols. Entities are partitioned into contiguous shards of near-equal
// work; every round runs all shards' send phases in parallel, then all
// shards' deliver-and-receive phases, with a barrier after each. Messages
// cross shards in double-buffered per-shard batches handed over at the
// send barrier, and all per-round buffers are reused, keeping the hot path
// allocation-free. On the broadcast path (every entity a
// local.Broadcaster) an owner shard writes its entities' values into a
// parity-double-buffered local.Store in the send phase, and receivers in
// any shard read them after the send barrier; only the IDs of the
// entities a broadcast reaches in other shards cross in batches.
//
// Exec is the engine's one round loop. Engine.Run drives an Exec to
// completion, fanning each phase out on fresh goroutines; internal/serve
// drives Execs through its shared worker lanes instead. Each shard's
// entities live in a local.Block, the sequential engine's own, so a shard
// visits only its due entities and those a message reached. A round costs
// two barriers across the shards (not across entities) and one slice
// append per message (on the broadcast path: one store write per sending
// entity, one bit set per port, and a 4-byte ID append for each port whose
// neighbor lives in another shard), and its shards run in parallel. Error-free runs are bit-identical to local.Sequential for every
// protocol in the repository (on a protocol error, each shard stops sending
// at its own first bad entity, so the partial message count returned with
// the error may differ from the sequential engine's): the receive order
// within a shard is ascending entity order, inboxes and broadcast views are
// port-indexed (so delivery order is immaterial), and the receive phase,
// with the sparse and sleeper fast paths, is the sequential engine's
// Block.Receive.
package sharded

import (
	"fmt"

	"github.com/distec/distec/internal/local"
)

// Config tunes the engine.
type Config struct {
	// Shards is the shard count; ≤0 selects runtime.GOMAXPROCS(0) (one
	// shard per core). The effective count never exceeds the entity count.
	Shards int
}

// Engine is the sharded execution engine. The zero value is valid and uses
// one shard per core. Engines are stateless between runs and safe for
// concurrent use.
type Engine struct {
	cfg Config
}

// New returns a sharded engine with the given configuration.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// Default is the sharded engine with one shard per core.
var Default local.Engine = New(Config{})

// Name implements local.Engine.
func (e *Engine) Name() string {
	if e.cfg.Shards > 0 {
		return fmt.Sprintf("sharded-%d", e.cfg.Shards)
	}
	return "sharded"
}

// Run implements local.Engine: it prepares an Exec and drives its rounds to
// completion on fresh goroutines (GoExecutor). Error-free runs return stats
// bit-identical to local.Sequential.
func (e *Engine) Run(t *local.Topology, f local.Factory, opts *local.Options) (local.Stats, error) {
	x := prepare(t, f, opts, e.cfg.Shards, GoExecutor, e.Name())
	for !x.Round(GoExecutor) {
	}
	return x.Stats()
}
