package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Module is a loaded, type-checked Go module: every non-test package
// under its root, sharing one FileSet. Test files are excluded on
// purpose — the invariants the suite checks are production-code
// contracts, and excluding tests keeps the type-check surface (and the
// finding set) exactly the shipped tree.
type Module struct {
	Root string // absolute module root (the go.mod directory)
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path

	byPath   map[string]*Package
	fallback types.Importer // stdlib, from source

	cg  *CallGraph                     // lazy, via CallGraph()
	sup map[string]map[int]suppression // lazy, by filename then line, via suppressed
}

// suppressed reports whether a //distec:nolint directive anywhere in the
// module silences the named analyzer at file:line. The driver filters
// every finding through it, and the transitive analyzers' callee
// summaries skip sites already justified in place — otherwise every
// caller of a nolint-ed function would re-report the suppressed finding.
func (m *Module) suppressed(file string, line int, analyzer string) bool {
	if m.sup == nil {
		m.sup = map[string]map[int]suppression{}
		for _, pkg := range m.Pkgs {
			for i, f := range pkg.Files {
				m.sup[pkg.Filenames[i]] = suppressionsOf(m.Fset, f)
			}
		}
	}
	s, ok := m.sup[file][line]
	return ok && s.suppressed(analyzer)
}

// posSuppressed is suppressed keyed by a token.Pos.
func (m *Module) posSuppressed(pos token.Pos, analyzer string) bool {
	p := m.Fset.Position(pos)
	return m.suppressed(p.Filename, p.Line, analyzer)
}

// Package is one parsed and type-checked package of the module.
type Package struct {
	Path      string // import path
	Dir       string
	Filenames []string
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
	// TypeErrors collects type-check problems. The driver refuses to
	// report findings over a tree that does not type-check (diagnostics
	// over broken types are noise), so these surface as load errors.
	TypeErrors []error

	checking, checked bool
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule parses and type-checks every non-test package under root
// (a directory containing go.mod). Directories named testdata or vendor,
// and dot/underscore-prefixed entries, are skipped — mirroring the go
// tool's package discovery.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modData, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %s is not a module root: %w", root, err)
	}
	match := moduleLineRE.FindSubmatch(modData)
	if match == nil {
		return nil, fmt.Errorf("analysis: %s/go.mod has no module line", root)
	}
	m := &Module{
		Root:   root,
		Path:   string(match[1]),
		Fset:   token.NewFileSet(),
		byPath: map[string]*Package{},
	}
	m.fallback = importer.ForCompiler(m.Fset, "source", nil)
	if err := m.discover(); err != nil {
		return nil, err
	}
	for _, pkg := range m.Pkgs {
		if err := m.check(pkg); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// discover walks the tree, parsing every package directory.
func (m *Module) discover() error {
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != m.Root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		base := filepath.Base(path)
		if strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(m.Root, dir)
		if err != nil {
			return err
		}
		ip := m.Path
		if rel != "." {
			ip = m.Path + "/" + filepath.ToSlash(rel)
		}
		pkg := m.byPath[ip]
		if pkg == nil {
			pkg = &Package{Path: ip, Dir: dir}
			m.byPath[ip] = pkg
			m.Pkgs = append(m.Pkgs, pkg)
		}
		file, err := parser.ParseFile(m.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		pkg.Filenames = append(pkg.Filenames, path)
		pkg.Files = append(pkg.Files, file)
		return nil
	})
	if err != nil {
		return err
	}
	if len(m.Pkgs) == 0 {
		return fmt.Errorf("analysis: no Go packages under %s", m.Root)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	return nil
}

// check type-checks pkg (idempotent), resolving in-module imports
// recursively and everything else through the stdlib source importer.
func (m *Module) check(pkg *Package) error {
	if pkg.checked {
		return nil
	}
	if pkg.checking {
		return fmt.Errorf("analysis: import cycle through %s", pkg.Path)
	}
	pkg.checking = true
	defer func() { pkg.checking = false }()

	cfg := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if dep, ok := m.byPath[path]; ok {
				if err := m.check(dep); err != nil {
					return nil, err
				}
				return dep.Types, nil
			}
			return m.fallback.Import(path)
		}),
		Error: func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := cfg.Check(pkg.Path, m.Fset, pkg.Files, pkg.Info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	pkg.checked = true
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Select resolves package patterns against the module: no patterns or
// "./..." selects every package; "./x" or "x" or a full import path
// selects one subtree ("./x/..." its descendants too).
func (m *Module) Select(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		return m.Pkgs, nil
	}
	seen := map[string]bool{}
	var out []*Package
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." || pat == "all" {
			return m.Pkgs, nil
		}
		subtree := false
		if s, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, subtree = s, true
		}
		pat = strings.TrimPrefix(pat, "./")
		pat = strings.TrimSuffix(pat, "/")
		// Accept both module-relative ("internal/core") and full import
		// paths ("github.com/x/internal/core").
		want := pat
		if !strings.HasPrefix(pat, m.Path) {
			if pat == "." || pat == "" {
				want = m.Path
			} else {
				want = m.Path + "/" + filepath.ToSlash(pat)
			}
		}
		matched := false
		for _, pkg := range m.Pkgs {
			if pkg.Path == want || (subtree && strings.HasPrefix(pkg.Path, want+"/")) {
				matched = true
				if !seen[pkg.Path] {
					seen[pkg.Path] = true
					out = append(out, pkg)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("analysis: pattern %q matches no packages", pat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}
