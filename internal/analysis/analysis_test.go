package analysis_test

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/distec/distec/internal/analysis"
)

// fixtureConfig points the suite at the testdata module's stand-ins.
func fixtureConfig() analysis.Config {
	return analysis.Config{
		SolverPackages:        []string{"determ"},
		MetricsPkgSuffix:      "stubs/metrics",
		TracePkgSuffix:        "stubs/trace",
		ReadmePath:            "README.md",
		RequestScopedPackages: []string{"ctxflow"},
	}
}

func loadFixtureModule(t *testing.T) *analysis.Module {
	t.Helper()
	m, err := analysis.LoadModule(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return m
}

// want is one `// want "regexp"` expectation from a fixture file.
type want struct {
	re      *regexp.Regexp
	matched bool
}

var wantLineRE = regexp.MustCompile(`// want (.*)$`)
var wantQuoteRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// loadWants scans every fixture Go file for want comments, keyed by
// absolute filename and line.
func loadWants(t *testing.T, root string) map[string]map[int][]*want {
	t.Helper()
	out := map[string]map[int][]*want{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantLineRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, q := range wantQuoteRE.FindAllStringSubmatch(m[1], -1) {
				pat, err := strconv.Unquote(`"` + q[1] + `"`)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %q: %v", path, line, q[1], err)
				}
				if out[abs] == nil {
					out[abs] = map[int][]*want{}
				}
				out[abs][line] = append(out[abs][line], &want{re: regexp.MustCompile(pat)})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}
	return out
}

// TestFixtures runs the whole suite over the fixture module and checks
// the findings against the // want comments: every want must be hit,
// every finding must be wanted. README-side findings (the stale catalog
// row) are asserted directly since want comments only live in Go files.
func TestFixtures(t *testing.T) {
	m := loadFixtureModule(t)
	diags, err := analysis.Run(m, m.Pkgs, fixtureConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wants := loadWants(t, filepath.Join("testdata", "src"))

	var readmeDiags []analysis.Diagnostic
	for _, d := range diags {
		if strings.HasSuffix(d.File, "README.md") {
			readmeDiags = append(readmeDiags, d)
			continue
		}
		ws := wants[d.File][d.Line]
		hit := false
		for _, w := range ws {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched, hit = true, true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for file, lines := range wants {
		for line, ws := range lines {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: expected a finding matching %q, got none", file, line, w.re)
				}
			}
		}
	}

	if len(readmeDiags) != 1 {
		t.Fatalf("README findings = %d (%v), want exactly the stale catalog row", len(readmeDiags), readmeDiags)
	}
	if d := readmeDiags[0]; d.Analyzer != "metricnames" || !strings.Contains(d.Message, `"app_stale_total"`) {
		t.Fatalf("README finding = %s, want the app_stale_total stale-row diagnostic", d)
	}
}

// TestFindingsIgnoreVisitOrder reruns the suite over the fixtures with
// packages, files and declarations shuffled: the transitive analyzers
// share memoized callee summaries across call sites, and the findings —
// messages, witnesses included — must not depend on which caller asked
// first.
func TestFindingsIgnoreVisitOrder(t *testing.T) {
	m := loadFixtureModule(t)
	want, err := analysis.Run(m, m.Pkgs, fixtureConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		m := loadFixtureModule(t)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(m.Pkgs), func(i, j int) { m.Pkgs[i], m.Pkgs[j] = m.Pkgs[j], m.Pkgs[i] })
		for _, pkg := range m.Pkgs {
			rng.Shuffle(len(pkg.Files), func(i, j int) {
				pkg.Files[i], pkg.Files[j] = pkg.Files[j], pkg.Files[i]
				pkg.Filenames[i], pkg.Filenames[j] = pkg.Filenames[j], pkg.Filenames[i]
			})
			for _, f := range pkg.Files {
				rng.Shuffle(len(f.Decls), func(i, j int) { f.Decls[i], f.Decls[j] = f.Decls[j], f.Decls[i] })
			}
		}
		got, err := analysis.Run(m, m.Pkgs, fixtureConfig())
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: findings depend on visit order:\n got %v\nwant %v", seed, got, want)
		}
	}
}

// TestPartialRunSkipsCatalogCheck pins that analyzing a package subset
// does not produce absence claims: the stale-row finding (and the
// undocumented-metric finding) need the whole module in view.
func TestPartialRunSkipsCatalogCheck(t *testing.T) {
	m := loadFixtureModule(t)
	pkgs, err := m.Select([]string{"determ"})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	diags, err := analysis.Run(m, pkgs, fixtureConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		if d.Analyzer == "metricnames" {
			t.Errorf("partial run produced a metricnames finding: %s", d)
		}
		if !strings.HasSuffix(filepath.Dir(d.File), "determ") {
			t.Errorf("finding outside the selected package: %s", d)
		}
	}
}

// TestSelectPatterns pins the package-pattern grammar.
func TestSelectPatterns(t *testing.T) {
	m := loadFixtureModule(t)
	if got, err := m.Select(nil); err != nil || len(got) != len(m.Pkgs) {
		t.Fatalf("Select(nil) = %d pkgs, err %v; want all %d", len(got), err, len(m.Pkgs))
	}
	if got, err := m.Select([]string{"./..."}); err != nil || len(got) != len(m.Pkgs) {
		t.Fatalf(`Select("./...") = %d pkgs, err %v; want all %d`, len(got), err, len(m.Pkgs))
	}
	got, err := m.Select([]string{"./stubs/..."})
	if err != nil || len(got) != 2 {
		t.Fatalf(`Select("./stubs/...") = %v, err %v; want the two stubs`, got, err)
	}
	one, err := m.Select([]string{"determ"})
	if err != nil || len(one) != 1 || !strings.HasSuffix(one[0].Path, "/determ") {
		t.Fatalf(`Select("determ") = %v, err %v`, one, err)
	}
	if _, err := m.Select([]string{"./nonexistent"}); err == nil {
		t.Fatal(`Select("./nonexistent") succeeded, want error`)
	}
}

// TestAnalyzerNames pins the suite roster.
func TestAnalyzerNames(t *testing.T) {
	got := analysis.AnalyzerNames()
	want := []string{"atomicmix", "ctxflow", "determinism", "goroleak", "hotpath", "lockio", "lockorder", "metricnames", "sentinelerr"}
	if len(got) != len(want) {
		t.Fatalf("AnalyzerNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AnalyzerNames() = %v, want %v", got, want)
		}
	}
}

// TestRepoIsClean is the acceptance criterion as a test: the suite with
// the repository's own configuration finds nothing in the final tree.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module against the source importer")
	}
	m, err := analysis.LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule(repo): %v", err)
	}
	diags, err := analysis.Run(m, m.Pkgs, analysis.DefaultConfig())
	if err != nil {
		t.Fatalf("Run(repo): %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}
