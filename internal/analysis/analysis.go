// Package analysis is distec's repo-specific static-analysis suite: a
// small driver framework (package loading, type checking, diagnostic
// reporting, //distec:nolint suppressions) plus analyzers that
// machine-check the conventions the codebase's correctness rests on —
// deterministic solvers, errors.Is on sentinels, allocation-free hot
// paths, no blocking I/O under locks, a cycle-free lock order,
// goroutines that can terminate, context and atomic-access discipline,
// and a metrics catalog that cannot drift from the docs.
//
// Mechanisms the analyzers share exist once. hotpath, lockio, lockorder
// and goroleak follow calls through one memoized callee summary over
// the static call graph (summary); lockio and lockorder track held
// mutexes with one statement-order walk (lockWalk, with mutexOp and
// release as its lock model); and one module-wide //distec:nolint index
// (Module.suppressed) serves both the driver's filtering and the
// summaries, which skip sites justified in place.
//
// The suite is zero-dependency by construction: loading is go/parser,
// type checking is go/types with the stdlib source importer, and the
// driver is cmd/distecvet. The analyzers encode invariants, not style:
// every check corresponds to a failure mode this repository has to
// defend against (cross-engine equivalence and WAL replay assume
// bit-for-bit deterministic solvers; wrapped sentinels break == matching;
// the ≤2% tracer-overhead gate assumes nil-guarded emission; the WAL
// append lock must not silently grow new I/O).
//
// Two source annotations drive the suite:
//
//	//distec:hotpath            marks a function as per-round/per-batch
//	                            hot; the hotpath analyzer then checks its
//	                            body (no fmt, closures, map or channel
//	                            allocations, fresh-slice appends,
//	                            unguarded tracers).
//	//distec:nolint [names]     suppresses diagnostics on its line (or,
//	                            alone on a line, the line below) — all
//	                            analyzers when bare, else the named,
//	                            comma-separated ones.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run is invoked once per analyzed
// package; Finish, when set, runs after every package (for whole-module
// checks such as duplicate metric registrations). Analyzers carry run
// state, so a fresh set must be built per driver run (see Analyzers).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass)
	// Finish runs once after all packages were analyzed, for checks that
	// span packages (cross-package duplicates, docs cross-checks). pkgs is
	// the set actually analyzed; checks that are only sound with the whole
	// module in view (is anything missing?) must compare it against
	// m.Pkgs and stand down on partial runs.
	Finish func(m *Module, pkgs []*Package, cfg Config, report func(Diagnostic))
}

// Pass is one analyzer × package unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Module   *Module
	Config   Config
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Module.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the go-vet style human form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Config parameterizes the suite for the module under analysis. The zero
// value plus DefaultConfig() is what cmd/distecvet uses; fixture tests
// override the suffixes to point at testdata stand-ins.
type Config struct {
	// SolverPackages are import-path suffixes of the packages whose
	// execution must be bit-for-bit deterministic (the determinism
	// analyzer's scope). Engine packages are excluded on purpose: they may
	// measure wall time for stats, but never let it influence results.
	SolverPackages []string
	// MetricsPkgSuffix identifies the metrics registry package; calls to
	// Counter/Gauge/Histogram/...Func methods on its Registry type are
	// metric registrations.
	MetricsPkgSuffix string
	// TracePkgSuffix identifies the tracer package; calls to methods on
	// its types inside //distec:hotpath functions must be nil-guarded.
	TracePkgSuffix string
	// ReadmePath, when non-empty, is the documentation file whose metric
	// catalog the metricnames analyzer cross-checks against the registered
	// set (both directions: undocumented registrations and stale doc rows
	// are findings).
	ReadmePath string
	// RequestScopedPackages are import-path suffixes of packages whose
	// code runs per request or per session: the ctxflow analyzer forbids
	// minting fresh roots via context.Background()/TODO() there (outside
	// main/init), because a root context detaches the work from the
	// caller's deadline and cancellation.
	RequestScopedPackages []string
}

// DefaultConfig returns the configuration for this repository.
func DefaultConfig() Config {
	return Config{
		SolverPackages: []string{
			"internal/core",
			"internal/linial",
			"internal/listcolor",
			"internal/defective",
			"internal/pseudoforest",
			"internal/vertexcolor",
			"internal/vizing",
			"internal/dynamic",
		},
		MetricsPkgSuffix: "internal/metrics",
		TracePkgSuffix:   "internal/trace",
		ReadmePath:       "README.md",
		RequestScopedPackages: []string{
			"internal/serve",
			"internal/sessions",
			"cmd/edgecolord",
		},
	}
}

// Analyzers returns a fresh instance of the full suite. Instances hold
// per-run state (the metricnames registration table), so never share a
// set between driver runs.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		newDeterminism(),
		newSentinelErr(),
		newHotPath(),
		newLockIO(),
		newMetricNames(),
		newLockOrder(),
		newGoroLeak(),
		newCtxFlow(),
		newAtomicMix(),
	}
}

// AnalyzerNames returns the names of the full suite, sorted.
func AnalyzerNames() []string {
	as := Analyzers()
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}

// hasPathSuffix reports whether import path p ends with suffix at a path
// boundary ("x/internal/core" matches "internal/core", "myinternal/core"
// does not).
func hasPathSuffix(p, suffix string) bool {
	if p == suffix {
		return true
	}
	return strings.HasSuffix(p, "/"+suffix)
}

// nolintDirective is the suppression comment prefix.
const nolintDirective = "//distec:nolint"

// hotpathDirective marks a function whose body the hotpath analyzer checks.
const hotpathDirective = "//distec:hotpath"

// suppression is one //distec:nolint comment: the line it acts on and the
// analyzer names it silences (empty = all).
type suppression struct {
	analyzers map[string]bool // nil means every analyzer
}

// suppressionsOf indexes every //distec:nolint comment of a file by the
// line it suppresses: its own line, or — when the comment stands alone on
// its line — the line directly below.
func suppressionsOf(fset *token.FileSet, f *ast.File) map[int]suppression {
	out := map[int]suppression{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, nolintDirective)
			if !ok {
				continue
			}
			if text != "" && !strings.HasPrefix(text, " ") && !strings.HasPrefix(text, "\t") {
				continue // e.g. //distec:nolinting — not the directive
			}
			s := suppression{}
			if names := strings.TrimSpace(text); names != "" {
				s.analyzers = map[string]bool{}
				for _, n := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					s.analyzers[n] = true
				}
			}
			pos := fset.Position(c.Pos())
			line := pos.Line
			// A directive alone on its line suppresses the next line.
			if startsLine(fset, f, c) {
				line++
			}
			if prev, ok := out[line]; ok {
				s = mergeSuppression(prev, s)
			}
			out[line] = s
		}
	}
	return out
}

// startsLine reports whether comment c is the first token on its line.
func startsLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	// Column 1 is a trivial yes; otherwise scan whether any declaration
	// node starts earlier on the same line. Comments attached after code
	// ("x := 1 //distec:nolint") have code before them on the line.
	if pos.Column == 1 {
		return true
	}
	sameLineCode := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || sameLineCode {
			return false
		}
		np := fset.Position(n.Pos())
		if np.Line == pos.Line && np.Column < pos.Column {
			sameLineCode = true
			return false
		}
		return true
	})
	return !sameLineCode
}

// mergeSuppression unions two directives acting on one line; a bare
// directive (analyzers == nil, "suppress everything") absorbs named ones.
func mergeSuppression(a, b suppression) suppression {
	if a.analyzers == nil || b.analyzers == nil {
		return suppression{}
	}
	for n := range b.analyzers {
		a.analyzers[n] = true
	}
	return a
}

// suppressed reports whether s silences the named analyzer.
func (s suppression) suppressed(analyzer string) bool {
	return s.analyzers == nil || s.analyzers[analyzer]
}

// isHotPath reports whether a function declaration carries the
// //distec:hotpath marker in its doc comment.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}
