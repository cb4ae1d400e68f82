package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"github.com/distec/distec/internal/analysis"
)

func TestListExitsCleanAndNamesEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, stderr.String())
	}
	for _, name := range analysis.AnalyzerNames() {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout.String())
		}
	}
}

// TestListGolden pins the exact -list output: sorted by analyzer name,
// one line each with the one-line doc. A new analyzer, a rename, or a
// doc rewrite must update this golden deliberately.
func TestListGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, stderr.String())
	}
	want := strings.Join([]string{
		"atomicmix    flags fields accessed both through sync/atomic and with plain reads/writes anywhere in the module",
		"ctxflow      enforces context discipline: ctx first param, no ctx struct fields, cancel called on all paths, no fresh roots in request-scoped code",
		"determinism  flags nondeterminism sources (map-order-dependent writes, wall clock, global rand, multi-way select) in solver packages",
		"goroleak     flags go statements whose goroutine reaches an infinite loop with no return, break, or Goexit on any path",
		"hotpath      flags fmt, capturing closures, map and channel allocation, fresh-slice append, and unguarded trace calls inside (or statically reachable from) //distec:hotpath functions",
		"lockio       flags blocking I/O (file writes, fsync, os calls, journal hooks) reachable, directly or through static callees, while a mutex locked in the same function is held",
		"lockorder    builds the module-wide mutex acquired-while-held graph across static call chains and reports cycles as deadlock candidates",
		"metricnames  validates metric registration names, flags duplicates, and cross-checks the README metric catalog",
		"sentinelerr  flags ==/!= comparisons against module sentinel errors and fmt.Errorf wrapping a sentinel without %w",
		"",
	}, "\n")
	if got := stdout.String(); got != want {
		t.Errorf("-list output:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestUnknownFlagIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-bogus) = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage: distecvet") {
		t.Errorf("stderr missing usage text: %q", stderr.String())
	}
}

func TestMissingModuleIsLoadError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", t.TempDir()}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-C emptydir) = %d, want 2; stderr %q", code, stderr.String())
	}
}

// TestFindingsExitOneWithJSON drives the binary end to end over the
// analysis fixtures: findings must surface as valid JSON and exit 1.
// The sentinel fixture is used because sentinelerr fires under the
// default configuration (the other fixture packages need the test
// suite's path-suffix overrides).
func TestFindingsExitOneWithJSON(t *testing.T) {
	fixtures := filepath.Join("..", "..", "internal", "analysis", "testdata", "src")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", fixtures, "-json", "./sentinel"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run over fixtures = %d, want 1; stderr %q", code, stderr.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("expected findings in the sentinel fixture, got none")
	}
	for _, d := range diags {
		if d.Analyzer != "sentinelerr" {
			t.Errorf("unexpected analyzer %q in ./sentinel run: %s", d.Analyzer, d)
		}
	}
}
