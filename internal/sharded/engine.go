// Package sharded implements the parallel execution engine for LOCAL
// protocols. Entities are partitioned into contiguous shards of near-equal
// work; every round runs all shards' send phases in parallel, then all
// shards' receive phases, with a barrier after each.
//
// Each shard's entities live in a local.Block, the sequential engine's
// own, which runs both phases: a shard visits only its due entities and
// those a message reached, and a message between two entities of one
// shard goes straight into the receiver's inbox. Outside the block stays
// only the routing to other shards: the send phase batches what a block
// addresses to other shards per destination shard, and each receive phase
// first hands its block the batches addressed to it. On the broadcast path
// (every entity a local.Broadcaster) an owner shard writes its entities'
// values into the run's one local.Store in the send phase, and receivers
// in any shard read them after the send barrier; only the IDs of the
// entities a broadcast reaches in other shards cross in batches. Batches,
// store and inboxes are single buffers reused every round, keeping the hot
// path allocation-free.
//
// Exec is the engine's one round loop. Engine.Run drives an Exec to
// completion, fanning each phase out on fresh goroutines; internal/serve
// drives Execs through its shared worker lanes instead. A round costs two
// barriers across the shards (not across entities) and its shards run in
// parallel. Error-free runs are bit-identical to local.Sequential for
// every protocol in the repository (on a protocol error, each shard stops
// sending at its own first bad entity, so the partial message count
// returned with the error may differ from the sequential engine's): the
// receive order within a shard is ascending entity order, inboxes and
// broadcast views are port-indexed (so delivery order is immaterial), and
// both phases are the sequential engine's Block.Send and Block.Receive.
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
