package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/distec/distec/internal/trace"
)

func TestLoadGraphGenerators(t *testing.T) {
	cases := []struct {
		gen  string
		n, d int
		p    float64
	}{
		{"regular", 32, 4, 0},
		{"gnp", 40, 0, 0.1},
		{"geometric", 40, 0, 0.2},
		{"powerlaw", 40, 8, 0},
		{"complete", 8, 0, 0},
		{"cycle", 9, 0, 0},
		{"bipartite", 10, 0, 0},
		{"tree", 20, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.gen, func(t *testing.T) {
			g, err := loadGraph("", tc.gen, tc.n, tc.d, tc.p, 1)
			if err != nil {
				t.Fatalf("loadGraph: %v", err)
			}
			if g.N() == 0 {
				t.Fatal("empty graph")
			}
		})
	}
}

func TestLoadGraphUnknownGenerator(t *testing.T) {
	if _, err := loadGraph("", "nope", 10, 3, 0, 1); err == nil {
		t.Fatal("accepted unknown generator")
	}
}

func TestLoadGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("3 2\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(path, "", 0, 0, 0, 0)
	if err != nil {
		t.Fatalf("loadGraph(file): %v", err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
}

func TestLoadGraphMissingFile(t *testing.T) {
	if _, err := loadGraph("/definitely/not/here.txt", "", 0, 0, 0, 0); err == nil {
		t.Fatal("accepted missing file")
	}
}

func TestValidateFlags(t *testing.T) {
	ok := []struct {
		engine string
		shards int
		alg    string
	}{
		{"sequential", 0, "bko"},
		{"sequential", 0, "bko-theory"},
		{"sharded", 4, "pr01"},
		{"sharded", 0, "greedy-classes"},
		{"sequential", 2, "randomized"}, // -shards is inert but valid here
		{"sequential", 0, "vizing"},
	}
	for _, tc := range ok {
		if err := validateFlags(tc.engine, tc.shards, tc.alg); err != nil {
			t.Errorf("validateFlags(%q, %d, %q) = %v, want nil", tc.engine, tc.shards, tc.alg, err)
		}
	}
	bad := []struct {
		engine string
		shards int
		alg    string
	}{
		{"warp-drive", 0, "bko"}, // unknown engine
		{"goroutines", 0, "bko"}, // removed engine
		{"Sharded", 0, "bko"},    // case matters
		{"sharded", -1, "bko"},   // negative shards
		{"sequential", 0, "bk0"}, // unknown algorithm
		{"", 0, "bko"},           // empty engine is not a default here
	}
	for _, tc := range bad {
		if err := validateFlags(tc.engine, tc.shards, tc.alg); err == nil {
			t.Errorf("validateFlags(%q, %d, %q) accepted bad flags", tc.engine, tc.shards, tc.alg)
		}
	}
}

// TestProfileHelpers: the -cpuprofile/-memprofile plumbing writes real,
// nonempty pprof files and surfaces bad paths as errors.
func TestProfileHelpers(t *testing.T) {
	stop, err := startCPUProfile("")
	if err != nil {
		t.Fatal(err)
	}
	stop() // empty path: no-op closure, must not panic

	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.pprof")
	stop, err = startCPUProfile(cpuPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1e6; i++ {
		_ = i * i
	}
	stop()
	if fi, err := os.Stat(cpuPath); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile: %v (size %v)", err, fi)
	}

	if err := writeHeapProfile(""); err != nil {
		t.Fatal(err)
	}
	heapPath := filepath.Join(dir, "heap.pprof")
	if err := writeHeapProfile(heapPath); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(heapPath); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile: %v (size %v)", err, fi)
	}

	bad := filepath.Join(dir, "missing", "out.pprof")
	if _, err := startCPUProfile(bad); err == nil {
		t.Error("startCPUProfile into missing dir: no error")
	}
	if err := writeHeapProfile(bad); err == nil {
		t.Error("writeHeapProfile into missing dir: no error")
	}
}

// TestWriteTrace pins the -trace export helper: "" is a no-op, a real
// path gets well-formed Chrome trace-event JSON with the embedded
// summary, and an unwritable path reports the error.
func TestWriteTrace(t *testing.T) {
	if err := writeTrace("", nil); err != nil {
		t.Fatalf("empty path: %v", err)
	}

	tr := trace.New()
	tr.SetLabel("base")
	s := tr.StartSpan("sequential", 4)
	s.Round(trace.RoundEvent{Round: 1, Messages: 8, Received: 4, Halted: 4})
	s.End(nil)

	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := writeTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		Summary     *trace.Summary    `json:"summary"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if doc.Summary == nil || doc.Summary.Rounds != 1 || doc.Summary.Messages != 8 {
		t.Errorf("embedded summary = %+v, want 1 round / 8 messages", doc.Summary)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}

	if err := writeTrace(filepath.Join(dir, "missing", "t.json"), tr); err == nil {
		t.Error("writeTrace into missing dir: no error")
	}
}
