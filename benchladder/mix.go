package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/bench"
	"github.com/distec/distec/internal/core"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/persist"
	"github.com/distec/distec/internal/verify"
)

// mixConfig sizes pool-mix: one closed-loop client driving a default pool
// through a fixed rotation of uncached colorings (C), cache hits (K) and
// journaled session updates (U).
type mixConfig struct {
	colorN, colorD int // RandomRegular(colorN, colorD) color and cached graphs
	colorGraphs    int // distinct color graphs, rotated; more than the cache holds
	sessN, sessD   int // session graph RandomRegular(sessN, sessD)
	cycles         int // rotations of mixRotation
	batchSize      int
	rehydrateEvery int   // update batches between passivate/rehydrate cycles
	compactBytes   int64 // WAL size that triggers a (differential) compaction
	setups         int
	dir            string // scratch directory for the session's log
}

// mixRotation is one cycle of the 4:3:4 color:cached:update rotation.
const mixRotation = "CKUCKUCKUCU"

// mixState is what one pool-mix set-up builds.
type mixState struct {
	pool   *distec.Pool
	graphs []*distec.Graph
	fixed  *distec.Graph
	dyn    *distec.Dynamic
	jr     *journal
	dir    string
	popts  persist.Options
	// replayed counts the WAL records rehydrations replayed.
	replayed int
}

// subSeed derives the seed of the i-th generated input from the run's
// seed: color graph i on pool-mix (i = −1 gives the cached graph), probe
// slice i on the static workloads.
func subSeed(seed uint64, i int) uint64 { return seed<<16 | uint64(i+1) }

func newMixState(ctx context.Context, c mixConfig, seed uint64, dir string, warm *[]checked) (*mixState, error) {
	st := &mixState{
		pool:  distec.NewPool(distec.PoolOptions{}),
		dir:   dir,
		popts: persist.Options{CompactBytes: c.compactBytes, DiffCompact: true},
	}
	st.graphs = make([]*distec.Graph, c.colorGraphs)
	for i := range st.graphs {
		st.graphs[i] = distec.RandomRegular(c.colorN, c.colorD, subSeed(seed, i))
	}
	st.fixed = distec.RandomRegular(c.colorN, c.colorD, subSeed(seed, -1))
	var err error
	st.dyn, err = distec.NewDynamic(distec.RandomRegular(c.sessN, c.sessD, seed),
		distec.DynamicOptions{Options: distec.Options{Algorithm: distec.Vizing}, Pool: st.pool})
	if err != nil {
		st.pool.Close()
		return nil, fmt.Errorf("session: %w", err)
	}
	lg, err := persist.CreateLog(dir, st.dyn.Snapshot, st.popts)
	if err != nil {
		err = errors.Join(fmt.Errorf("session log: %w", err), st.dyn.Close())
		st.pool.Close()
		return nil, err
	}
	st.jr = &journal{lg: lg}
	st.dyn.SetJournal(st.jr.hook)
	// Warm-up: every color graph once, so the cache is full of color
	// results before the cached graph goes in last.
	for _, g := range append(slices.Clone(st.graphs), st.fixed) {
		res, err := st.pool.ColorEdges(ctx, g, distec.Options{})
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up coloring: %w", err), st.close())
		}
		*warm = append(*warm, checked{g, res})
	}
	return st, nil
}

// close releases the session, the log and the pool, waiting for a
// background compaction; the log's error is the compaction's.
func (st *mixState) close() error {
	err := errors.Join(st.dyn.Close(), st.jr.lg.Close())
	st.pool.Close()
	return err
}

// checked is a coloring result kept for verification after the clock
// stops.
type checked struct {
	g   *distec.Graph
	res *distec.Result
}

// journal mirrors edgecolord's journalFunc: append each applied batch to
// the WAL and, once the WAL outgrows its threshold, capture a snapshot under
// the session lock and hand the disk work to a background compaction. Each
// step is a span under the ApplyBatch span in flight (parent).
type journal struct {
	lg          *persist.Log
	tr          *tracer
	parent      int
	scratch     []persist.Update
	appends     int
	compactions int
	snapBytes   int
}

func (j *journal) hook(b distec.JournalBatch) error {
	sp := j.tr.begin("persist.append", j.parent)
	if cap(j.scratch) < len(b.Applied) {
		j.scratch = make([]persist.Update, len(b.Applied))
	}
	rec := persist.Record{Seq: b.Seq, Updates: j.scratch[:len(b.Applied)]}
	for i, up := range b.Applied {
		op := persist.OpInsert
		if up.Op == distec.DeleteEdge {
			op = persist.OpDelete
		}
		rec.Updates[i] = persist.Update{Op: op, U: int32(up.U), V: int32(up.V)}
	}
	err := j.lg.Append(rec)
	compact := err == nil && j.lg.NeedsCompaction()
	j.tr.end(sp)
	j.appends++
	if !compact {
		return err
	}
	var buf bytes.Buffer
	sp = j.tr.begin("persist.snapshot", j.parent)
	err = b.Snapshot(&buf)
	j.tr.end(sp)
	if err != nil {
		return fmt.Errorf("compaction snapshot: %w", err)
	}
	j.snapBytes += buf.Len()
	sp = j.tr.begin("persist.compact", j.parent)
	err = j.lg.CompactAsync(buf.Bytes())
	j.tr.end(sp)
	j.compactions++
	return err
}

// updateStats accumulates the update path's latencies and insert tiers.
type updateStats struct {
	latMs                       []float64
	greedy, repaired, augmented int
}

// apply runs one batch under a dynamic.apply span (with jr's journal spans
// as children) and checks the results after the clock stops: every update
// applied, every insert colored inside the session palette.
func (u *updateStats) apply(ctx context.Context, d *distec.Dynamic, batch []distec.Update, tr *tracer, jr *journal) error {
	sp := tr.begin("dynamic.apply", -1)
	if jr != nil {
		jr.tr, jr.parent = tr, sp
	}
	t0 := time.Now()
	rs, err := d.ApplyBatch(ctx, batch)
	u.latMs = append(u.latMs, ms(time.Since(t0)))
	tr.end(sp)
	if err != nil {
		return err
	}
	if len(rs) != len(batch) {
		return fmt.Errorf("%d results for %d updates", len(rs), len(batch))
	}
	palette := d.Palette()
	for i, r := range rs {
		if batch[i].Op != distec.InsertEdge {
			continue
		}
		if r.Color < 0 || r.Color >= palette {
			return fmt.Errorf("insert %d colored %d outside palette %d", i, r.Color, palette)
		}
		switch {
		case r.Augmented:
			u.augmented++
		case r.Repaired:
			u.repaired++
		default:
			u.greedy++
		}
	}
	return nil
}

// updateBatches cuts a churn stream into batches of the public update type.
func updateBatches(ops []bench.EdgeOp, size int) [][]distec.Update {
	var out [][]distec.Update
	for len(ops) > 0 {
		k := min(size, len(ops))
		b := make([]distec.Update, k)
		for i, op := range ops[:k] {
			b[i] = distec.Update{Op: distec.InsertEdge, U: op.U, V: op.V}
			if op.Delete {
				b[i].Op = distec.DeleteEdge
			}
		}
		out = append(out, b)
		ops = ops[k:]
	}
	return out
}

// mixPass is one pass over the timed sequence and what it measured.
type mixPass struct {
	colorMs, cachedMs []float64
	up                updateStats
	colorsUsed        []float64
	wall              time.Duration
	ops               int
	before, after     distec.PoolStats
	firstLap          []checked // the first result of every color graph
}

func runMix(ctx context.Context, c mixConfig, seed uint64, traced bool) (_ *outcome, err error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	probe := hostProbe()
	// Input generation, outside setup_s: the session's churn stream.
	churn := updateBatches(bench.ChurnCapped(distec.RandomRegular(c.sessN, c.sessD, seed),
		c.cycles*4*c.batchSize, c.sessD, seed+1), c.batchSize)
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(c.dir, "pool-mix-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(work); rerr != nil && err == nil {
			err = rerr
		}
	}()

	var ok tally
	var warm []checked
	var st *mixState
	setup := make([]float64, c.setups)
	for r := range setup {
		if st != nil {
			ok.add(st.close())
		}
		t0 := time.Now()
		s, err := newMixState(ctx, c, seed, fmt.Sprintf("%s/setup-%d", work, r), &warm)
		setup[r] = time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		st = s
	}
	for _, w := range warm {
		ok.add(checkBKO(w.g, w.res))
	}
	p, err := st.sequence(ctx, c, churn, nil, &ok)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	out.e2e["setup_s"] = quantile(setup, 0.5)
	out.e2e["ops_per_s"] = float64(p.ops) / p.wall.Seconds()
	out.e2e["solve_s"] = quantile(p.colorMs, 0.5) / 1000
	out.e2e["color_p50_ms"] = quantile(p.colorMs, 0.5)
	out.e2e["color_p90_ms"] = tailQuantile(p.colorMs, 0.9)
	out.e2e["cached_p50_ms"] = quantile(p.cachedMs, 0.5)
	out.e2e["update_p50_ms"] = quantile(p.up.latMs, 0.5)
	out.e2e["update_p99_ms"] = tailQuantile(p.up.latMs, 0.99)
	out.e2e["local_rounds"] = float64(p.after.Rounds - p.before.Rounds)
	out.e2e["colors_used"] = quantile(p.colorsUsed, 0.5)
	out.e2e["peak_rss_mb"] = peakRSSMB()

	if traced {
		if err := tracedMix(ctx, c, seed, churn, work, p, out, &ok); err != nil {
			return nil, err
		}
	}
	out.layer["host.probe_ms"] = probe
	out.attempted, out.failed = ok.attempted, ok.failed
	return out, nil
}

// sequence runs the timed closed loop: c.cycles rotations of mixRotation,
// with a passivate/rehydrate cycle every c.rehydrateEvery batches. Outputs
// are verified after the loop; the session at every rehydration and at the
// end. With a tracer, every call is a span.
func (st *mixState) sequence(ctx context.Context, c mixConfig, churn [][]distec.Update, tr *tracer, ok *tally) (*mixPass, error) {
	p := &mixPass{before: st.pool.Stats()}
	var colors, cached []checked
	seen := make([]bool, len(st.graphs))
	ci, bi, good := 0, 0, 0
	runtime.GC()
	t0 := time.Now()
	for cyc := 0; cyc < c.cycles; cyc++ {
		for _, op := range mixRotation {
			p.ops++
			switch op {
			case 'C', 'K':
				g, name := st.fixed, "distec.cached"
				if op == 'C' {
					g, name = st.graphs[ci%len(st.graphs)], "distec.color"
				}
				sp := tr.begin(name, -1)
				t := time.Now()
				res, err := st.pool.ColorEdges(ctx, g, distec.Options{})
				lat := ms(time.Since(t))
				tr.end(sp)
				if err != nil {
					ok.add(fmt.Errorf("%s request: %w", name, err))
					continue
				}
				if op == 'K' {
					p.cachedMs = append(p.cachedMs, lat)
					cached = append(cached, checked{g, res})
					continue
				}
				p.colorMs = append(p.colorMs, lat)
				colors = append(colors, checked{g, res})
				if !seen[ci%len(st.graphs)] {
					seen[ci%len(st.graphs)] = true
					p.firstLap = append(p.firstLap, checked{g, res})
				}
				ci++
			case 'U':
				if err := p.up.apply(ctx, st.dyn, churn[bi], tr, st.jr); err != nil {
					ok.add(fmt.Errorf("update batch %d: %w", bi, err))
				} else {
					good++
				}
				bi++
				if bi%c.rehydrateEvery == 0 {
					err := st.rehydrate(ctx, tr)
					ok.settle(good, err)
					good = 0
					if err != nil {
						return nil, err
					}
				}
			}
		}
	}
	p.wall = time.Since(t0)
	p.after = st.pool.Stats()

	vsp := tr.begin("dynamic.verify", -1)
	err := st.dyn.Verify()
	tr.end(vsp)
	ok.settle(good, err)
	if hits := p.after.CacheHits - p.before.CacheHits; hits != uint64(len(cached)) {
		ok.add(fmt.Errorf("%d cache hits for %d cached requests", hits, len(cached)))
	}
	if misses := p.after.CacheMisses - p.before.CacheMisses; misses != uint64(len(colors)) {
		ok.add(fmt.Errorf("%d cache misses for %d color requests", misses, len(colors)))
	}
	for _, r := range colors {
		ok.add(checkBKO(r.g, r.res))
		p.colorsUsed = append(p.colorsUsed, float64(r.res.ColorsUsed))
	}
	if len(cached) > 0 {
		ref := cached[0]
		ok.add(checkBKO(ref.g, ref.res))
		for _, r := range cached[1:] {
			if !slices.Equal(r.res.Colors, ref.res.Colors) {
				ok.add(fmt.Errorf("cached result differs from the verified one"))
				continue
			}
			ok.add(nil)
		}
	}
	return p, nil
}

// rehydrate passivates the session and rebuilds it from its directory the
// way edgecolord's passivate and rehydrateLocked do: close the log, then
// OpenLog → NewDynamicFromState → ReplayRecords → Verify, and reinstall
// the journal on the reopened log.
func (st *mixState) rehydrate(ctx context.Context, tr *tracer) error {
	sp := tr.begin("distec.passivate", -1)
	err := errors.Join(st.dyn.Passivate(), st.jr.lg.Close())
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("passivate: %w", err)
	}
	root := tr.begin("rehydrate", -1)
	defer tr.end(root)
	sp = tr.begin("persist.open", root)
	lg, snap, recs, err := persist.OpenLog(st.dir, st.popts)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("rehydrate: %w", err)
	}
	st.jr.lg = lg
	st.replayed += len(recs)
	sp = tr.begin("distec.restore", root)
	d, err := distec.NewDynamicFromState(snap, distec.DynamicOptions{Pool: st.pool})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("rehydrate: %w", err)
	}
	st.dyn = d
	sp = tr.begin("distec.replay", root)
	err = distec.ReplayRecords(ctx, d, recs)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("rehydrate: %w", err)
	}
	sp = tr.begin("dynamic.verify", root)
	err = d.Verify()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("rehydrate: coloring invalid: %w", err)
	}
	d.SetJournal(st.jr.hook)
	return nil
}

// tracedMix repeats the timed sequence on a fresh set-up with every call
// recorded as a span, then solves each color graph once through
// core.SolveGraph on the timing engine for the small-job split.
func tracedMix(ctx context.Context, c mixConfig, seed uint64, churn [][]distec.Update, work string, untraced *mixPass, out *outcome, ok *tally) error {
	var warm []checked
	st, err := newMixState(ctx, c, seed, work+"/traced", &warm)
	if err != nil {
		return err
	}
	tr := newTracer()
	p, err := st.sequence(ctx, c, churn, tr, ok)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if p.up.greedy != untraced.up.greedy || p.up.repaired != untraced.up.repaired || p.up.augmented != untraced.up.augmented {
		return fmt.Errorf("traced pass served inserts %d/%d/%d by tier, untraced %d/%d/%d",
			p.up.greedy, p.up.repaired, p.up.augmented, untraced.up.greedy, untraced.up.repaired, untraced.up.augmented)
	}
	out.layer["trace.overhead_pct"] = 100 * (float64(untraced.ops)/untraced.wall.Seconds() - float64(p.ops)/p.wall.Seconds()) /
		(float64(untraced.ops) / untraced.wall.Seconds())

	hits, misses := p.after.CacheHits-p.before.CacheHits, p.after.CacheMisses-p.before.CacheMisses
	out.layer["distec.cache_hits"] = float64(hits)
	out.layer["distec.cache_misses"] = float64(misses)
	out.layer["distec.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	out.layer["serve.jobs"] = float64(p.after.Submitted - p.before.Submitted)
	out.layer["serve.failed"] = float64(p.after.Failed - p.before.Failed)
	out.layer["serve.sequential_runs"] = float64(p.after.SequentialRuns - p.before.SequentialRuns)
	out.layer["serve.rounds"] = float64(p.after.Rounds - p.before.Rounds)
	out.layer["serve.messages"] = float64(p.after.Messages - p.before.Messages)

	apply, applyN := tr.total("dynamic.apply")
	appendDur, _ := tr.total("persist.append")
	snapDur, _ := tr.total("persist.snapshot")
	compactDur, _ := tr.total("persist.compact")
	openDur, _ := tr.total("persist.open")
	out.layer["dynamic.apply_s"] = apply.Seconds()
	out.layer["dynamic.self_s"] = (apply - appendDur - snapDur - compactDur).Seconds()
	out.layer["dynamic.greedy"] = float64(p.up.greedy)
	out.layer["dynamic.repaired"] = float64(p.up.repaired)
	out.layer["dynamic.augmented"] = float64(p.up.augmented)
	out.layer["persist.append_s"] = appendDur.Seconds()
	out.layer["persist.appends"] = float64(st.jr.appends)
	out.layer["persist.snapshot_s"] = snapDur.Seconds()
	out.layer["persist.snapshot_bytes"] = float64(st.jr.snapBytes)
	out.layer["persist.compact_s"] = compactDur.Seconds()
	out.layer["persist.compactions"] = float64(st.jr.compactions)
	out.layer["persist.open_s"] = openDur.Seconds()
	out.layer["persist.replayed_records"] = float64(st.replayed)
	restore, _ := tr.total("distec.restore")
	replay, _ := tr.total("distec.replay")
	verifyDur, _ := tr.total("dynamic.verify")
	rehydrate, nRehydrate := tr.total("rehydrate")
	out.layer["distec.restore_s"] = restore.Seconds()
	out.layer["distec.replay_s"] = replay.Seconds()
	out.layer["dynamic.verify_s"] = verifyDur.Seconds()
	out.layer["persist.rehydrate_ms"] = ms(rehydrate) / float64(max(1, nRehydrate))
	if applyN != len(untraced.up.latMs) {
		return fmt.Errorf("traced pass applied %d batches, untraced %d", applyN, len(untraced.up.latMs))
	}
	out.spans = tr
	return smallJobs(untraced.firstLap, tr, out)
}

// smallJobs solves each color graph once through core.SolveGraph on the
// timing engine: the split of a pool job between core bookkeeping and
// engine runs. Totals go to the core.*, local.* and phase metrics; per-job
// means to core.job_* and local.job_*. Each solve must charge the rounds
// and messages, and produce the coloring, of the untraced pool job.
func smallJobs(jobs []checked, tr *tracer, out *outcome) error {
	var solve, self, topo, check time.Duration
	var alloc, gcs float64
	var sweeps, classes, levels int
	var rounds int
	var eng phaseTotals
	ph := map[string]*phaseTotals{}
	for i, j := range jobs {
		palette := 2*j.g.MaxDegree() - 1
		in := listcolor.NewUniform(j.g, palette)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		root := tr.begin("job", -1)
		r, err := core.SolveGraph(in, core.Practical(), &timingEngine{tr: tr, parent: root})
		tr.end(root)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("traced job %d: %w", i, err)
		}
		if !slices.Equal(r.Colors, j.res.Colors) || r.Stats.Rounds != j.res.Rounds || r.Stats.Messages != j.res.Messages {
			return fmt.Errorf("traced job %d differs from its pool job", i)
		}
		solve += tr.dur(root)
		self += tr.self(root)
		alloc += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		gcs += float64(m1.NumGC - m0.NumGC)
		sweeps += r.Trace.OuterSweeps
		classes += r.Trace.ClassInstances
		levels += r.Trace.ChainLevels
		rounds += r.Stats.Rounds
		for l, p := range tr.phases(root) {
			q := ph[l]
			if q == nil {
				q = &phaseTotals{}
				ph[l] = q
			}
			q.dur += p.dur
			q.runs += p.runs
			q.rounds += p.rounds
			q.messages += p.messages
			eng.dur += p.dur
			eng.runs += p.runs
			eng.rounds += p.rounds
			eng.messages += p.messages
		}
		t0 := time.Now()
		active := make([]bool, j.g.M())
		for e := range active {
			active[e] = true
		}
		local.Induced(local.PairConflict(graphPairs(j.g)), active, nil)
		topo += time.Since(t0)
		t0 = time.Now()
		err = verify.EdgeColoring(j.g, nil, r.Colors)
		check += time.Since(t0)
		if err != nil {
			return fmt.Errorf("traced job %d: %w", i, err)
		}
	}
	n := float64(len(jobs))
	out.layer["core.solve_s"] = solve.Seconds()
	out.layer["core.self_s"] = self.Seconds()
	out.layer["core.alloc_mb"] = alloc
	out.layer["core.gc_cycles"] = gcs
	out.layer["core.outer_sweeps"] = float64(sweeps)
	out.layer["core.class_instances"] = float64(classes)
	out.layer["core.chain_levels"] = float64(levels)
	out.layer["core.job_self_ms"] = ms(self) / n
	out.layer["core.job_alloc_mb"] = alloc / n
	out.layer["local.job_engine_ms"] = ms(eng.dur) / n
	out.layer["local.job_engine_runs"] = float64(eng.runs) / n
	out.layer["local.rounds"] = float64(rounds)
	out.layer["local.topology_s"] = topo.Seconds()
	out.layer["verify.check_s"] = check.Seconds()
	putPhases(out, ph, eng)
	return nil
}
