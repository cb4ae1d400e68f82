package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// newLockOrder builds the lockorder analyzer: a whole-module check that
// two mutexes are never acquired in opposite orders on different call
// chains — the classic AB/BA deadlock, which in this stack would look
// like the session registry lock vs. a per-session lock vs. the WAL
// append lock, each individually correct and jointly fatal.
//
// The analyzer groups acquisitions into lock classes — the declared
// field or variable being locked, e.g. "(sessions.Session).mu" — and
// builds a directed acquired-while-held graph: an edge A→B means some
// function acquires B (directly, or anywhere down its static call
// chain) while holding A. Any edge that closes a cycle is a deadlock
// candidate, reported at the acquire or call site that induces it; an
// A→A edge is a recursive-acquisition candidate (Go mutexes are not
// reentrant).
//
// Which locks are held follows the conservative held-lock model
// lockorder shares with lockio (lockWalk). Call chains follow only static
// call-graph edges — interface and function-value calls resolve to
// nothing, so an unresolvable call never manufactures a finding.
// Deliberate exceptions (e.g. an address-ordered double acquire) carry
// //distec:nolint lockorder at the reported site.
//
// The check is only sound with every acquisition in view, so it runs in
// Finish and stands down on partial package selections.
func newLockOrder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc:  "builds the module-wide mutex acquired-while-held graph across static call chains and reports cycles as deadlock candidates",
	}
	a.Finish = func(m *Module, pkgs []*Package, cfg Config, report func(Diagnostic)) {
		if len(pkgs) != len(m.Pkgs) {
			return // lock classes span packages; partial views would lie
		}
		s := &lockOrderState{
			m:        m,
			label:    map[*types.Var]string{},
			edgeSeen: map[[2]*types.Var]bool{},
		}
		s.acquired = newSummary(s.acquiredIn)
		for _, pkg := range m.Pkgs {
			w := &lockWalk{pkg: pkg, acquire: s.acquire, call: s.call}
			w.funcs(pkg.Files)
		}
		s.reportCycles(report)
	}
	return a
}

// loEdge is one acquired-while-held observation: to was acquired while
// from was held, witnessed at pos (via names the callee when the
// acquisition happens down a call chain).
type loEdge struct {
	from, to *types.Var
	pos      token.Pos
	via      string
}

type lockOrderState struct {
	m        *Module
	label    map[*types.Var]string // first label seen per class
	edges    []loEdge
	edgeSeen map[[2]*types.Var]bool
	// acquired is every class a function may acquire, directly or down
	// its static call chain.
	acquired *summary[map[*types.Var]bool]
}

// see records the class's label on first sight and returns the class.
func (s *lockOrderState) see(ref mutexRef) *types.Var {
	if _, ok := s.label[ref.class]; !ok && ref.class != nil {
		s.label[ref.class] = ref.label
	}
	return ref.class
}

// acquire is the walk's acquisition hook: an edge from every held class
// to the one acquired.
func (s *lockOrderState) acquire(call *ast.CallExpr, ref mutexRef, held []mutexRef) {
	if v := s.see(ref); v != nil {
		s.addEdges(held, v, call.Pos(), "")
	}
}

// call is the walk's under-lock call hook: an edge from every held
// class to every class the static callee may transitively acquire.
func (s *lockOrderState) call(call *ast.CallExpr, held []mutexRef) {
	callee, ok := s.m.CallGraph().StaticCallee(call)
	if !ok {
		return // dynamic dispatch: fail safe, no manufactured edges
	}
	for _, v := range s.sortedClasses(s.acquired.of(s.m, callee)) {
		s.addEdges(held, v, call.Pos(), callee.Fn.Name())
	}
}

// acquiredIn computes the acquired summary of one function.
func (s *lockOrderState) acquiredIn(m *Module, n *CGNode) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false // other goroutines / deferred closures: not this chain
		case *ast.CallExpr:
			if ref, delta := mutexOp(n.Pkg, node); delta > 0 && s.see(ref) != nil {
				out[ref.class] = true
			}
			if callee, ok := m.CallGraph().StaticCallee(node); ok {
				for v := range s.acquired.of(m, callee) {
					out[v] = true
				}
			}
		}
		return true
	})
	return out
}

func (s *lockOrderState) sortedClasses(set map[*types.Var]bool) []*types.Var {
	out := make([]*types.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if s.label[out[i]] != s.label[out[j]] {
			return s.label[out[i]] < s.label[out[j]]
		}
		return out[i].Pos() < out[j].Pos()
	})
	return out
}

// addEdges records to as acquired while each held class is held; the
// first witness of a pair in scan order (deterministic: packages,
// files, statements) wins.
func (s *lockOrderState) addEdges(held []mutexRef, to *types.Var, pos token.Pos, via string) {
	for _, h := range held {
		key := [2]*types.Var{h.class, to}
		if h.class == nil || s.edgeSeen[key] {
			continue
		}
		s.edgeSeen[key] = true
		s.edges = append(s.edges, loEdge{from: h.class, to: to, pos: pos, via: via})
	}
}

// reportCycles reports every edge that participates in a cycle of the
// acquired-while-held graph, at its witness position.
func (s *lockOrderState) reportCycles(report func(Diagnostic)) {
	adj := map[*types.Var][]*types.Var{}
	for _, e := range s.edges {
		if e.from != e.to {
			adj[e.from] = append(adj[e.from], e.to)
		}
	}
	reaches := func(from, to *types.Var) bool {
		visited := map[*types.Var]bool{}
		var dfs func(v *types.Var) bool
		dfs = func(v *types.Var) bool {
			if v == to {
				return true
			}
			if visited[v] {
				return false
			}
			visited[v] = true
			for _, next := range adj[v] {
				if dfs(next) {
					return true
				}
			}
			return false
		}
		return dfs(from)
	}
	for _, e := range s.edges {
		var msg string
		switch {
		case e.from == e.to && e.via == "":
			msg = fmt.Sprintf("recursive acquisition: %s is re-acquired while already held (Go mutexes are not reentrant; self-deadlock)", s.label[e.to])
		case e.from == e.to:
			msg = fmt.Sprintf("recursive acquisition: call to %s re-acquires %s while it is held (Go mutexes are not reentrant; self-deadlock)", e.via, s.label[e.to])
		case reaches(e.to, e.from) && e.via == "":
			msg = fmt.Sprintf("lock-order cycle: %s is acquired while %s is held, and another chain acquires them in the opposite order (deadlock candidate)", s.label[e.to], s.label[e.from])
		case reaches(e.to, e.from):
			msg = fmt.Sprintf("lock-order cycle: call to %s acquires %s while %s is held, and another chain acquires them in the opposite order (deadlock candidate)", e.via, s.label[e.to], s.label[e.from])
		default:
			continue
		}
		pos := s.m.Fset.Position(e.pos)
		report(Diagnostic{File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: msg})
	}
}
