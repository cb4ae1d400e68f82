package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/distec/distec/internal/local"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own call. Parent indexes the enclosing span (−1 for a root); Rounds and
// Messages are set on engine-run spans only.
type span struct {
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	Dur      int64  `json:"dur_ns"`
	Rounds   int    `json:"rounds,omitempty"`
	Messages int64  `json:"messages,omitempty"`
}

// tracer keeps every span in memory; write dumps them once the run is
// over, so recording costs one append and two clock reads per span. A nil
// *tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its index (−1 on a nil
// tracer, which every other method accepts).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	d := time.Since(t.t0).Nanoseconds() - t.spans[i].Start
	t.spans[i].Dur = d
	return time.Duration(d)
}

// dur returns span i's duration.
func (t *tracer) dur(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	return time.Duration(t.spans[i].Dur)
}

// self returns span i's duration minus the durations of its direct
// children. Children are recorded strictly inside their parent, so the
// parent's self time plus its children's durations is its duration.
func (t *tracer) self(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	d := t.spans[i].Dur
	for _, s := range t.spans[i+1:] {
		if s.Parent == i {
			d -= s.Dur
		}
	}
	return time.Duration(d)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timingEngine is the benchmark's local.Engine for traced solves: it runs
// every protocol execution on local.Sequential — the engine ColorEdges
// uses — and records one span per Run under parent. Implementing SetLabel
// lets the solver's own local.SetSpanLabel calls name each span linial,
// defective, chain or base.
type timingEngine struct {
	tr     *tracer
	parent int
	label  string
}

func (e *timingEngine) Name() string { return "sequential" }

func (e *timingEngine) SetLabel(label string) { e.label = label }

func (e *timingEngine) Run(t *local.Topology, f local.Factory, opts *local.Options) (local.Stats, error) {
	name := e.label
	if name == "" {
		name = "unlabelled"
	}
	i := e.tr.begin(name, e.parent)
	st, err := local.Sequential.Run(t, f, opts)
	e.tr.end(i)
	e.tr.spans[i].Rounds, e.tr.spans[i].Messages = st.Rounds, st.Messages
	return st, err
}

// total sums the durations of every span named name and counts them.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.Dur)
			n++
		}
	}
	return d, n
}

// phaseTotals sums the engine-run spans directly under parent by label.
type phaseTotals struct {
	dur      time.Duration
	runs     int
	rounds   int
	messages int64
}

func (t *tracer) phases(parent int) map[string]*phaseTotals {
	out := map[string]*phaseTotals{}
	for _, s := range t.spans[parent+1:] {
		if s.Parent != parent {
			continue
		}
		p := out[s.Name]
		if p == nil {
			p = &phaseTotals{}
			out[s.Name] = p
		}
		p.dur += time.Duration(s.Dur)
		p.runs++
		p.rounds += s.Rounds
		p.messages += s.Messages
	}
	return out
}

// quantile returns the q-quantile (nearest rank) of xs; xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// tailQuantile estimates a tail quantile (p90, p99) as the mean of the
// samples ranked within half a percentile of q on either side: a smoothed
// estimate that scatters less from run to run than one order statistic.
// When the window holds a single sample, as it can with fewer than 100,
// it interpolates linearly between the two order statistics around q, as
// numpy's default quantile does, so that the slowest sample alone does not
// set the figure (with 9 samples, p90 is 0.8 of the second-slowest and 0.2
// of the slowest). xs is sorted in place.
func tailQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := float64(len(xs))
	lo := max(0, min(int(math.Floor((q-0.005)*n)), len(xs)-1))
	hi := max(lo+1, min(int(math.Ceil((q+0.005)*n)), len(xs)))
	if hi-lo < 2 {
		h := q * (n - 1)
		i := min(int(h), len(xs)-1)
		j := min(i+1, len(xs)-1)
		return xs[i] + (h-float64(i))*(xs[j]-xs[i])
	}
	sum := 0.0
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// medianIndex returns the index of the median element of xs (the lower
// median for even lengths) without reordering xs.
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(idx)-1)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
