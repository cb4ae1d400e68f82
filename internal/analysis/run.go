package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Run executes the full analyzer suite over the selected packages of a
// loaded module and returns the surviving diagnostics, sorted by
// position. //distec:nolint suppressions are applied here, so callers
// see only actionable findings.
//
// A module that does not type-check is an error, not a finding list:
// analyzers read types.Info, and diagnostics computed over broken type
// information are noise.
func Run(m *Module, pkgs []*Package, cfg Config) ([]Diagnostic, error) {
	var typeErrs []string
	for _, pkg := range m.Pkgs {
		for _, e := range pkg.TypeErrors {
			typeErrs = append(typeErrs, e.Error())
		}
	}
	if len(typeErrs) > 0 {
		limit := typeErrs
		if len(limit) > 10 {
			limit = limit[:10]
		}
		return nil, fmt.Errorf("analysis: module does not type-check:\n  %s", strings.Join(limit, "\n  "))
	}

	analyzers := Analyzers()
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, Module: m, Config: cfg, report: collect})
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			name := a.Name
			a.Finish(m, pkgs, cfg, func(d Diagnostic) {
				d.Analyzer = name
				collect(d)
			})
		}
	}

	out := diags[:0]
	for _, d := range diags {
		if !m.suppressed(d.File, d.Line, d.Analyzer) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}
