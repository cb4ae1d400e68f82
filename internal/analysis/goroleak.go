package analysis

import (
	"go/ast"
	"go/token"
)

// newGoroLeak builds the goroleak analyzer: every `go` statement must
// spawn work with a reachable termination path. The stack's goroutines
// — lane workers, replication tailers, round drivers — all follow the
// same contract: their loops end via a closed work channel (`for range
// ch`), a ctx/`Options.Interrupt` check that returns, or a bounded
// iteration. A goroutine whose body reaches an infinite loop
// (`for {}` / `for ;; {}`) with no return, no break out of that loop,
// and no Goexit can outlive its owner forever: it pins its captures,
// its ticker, and — after PR 9 — a passivated session's rehydration
// hook.
//
// The check is interprocedural over static call-graph edges: `go
// w.loop()` is analyzed by walking loop's body, and calls inside it.
// Dynamic calls (interface or function-value) resolve to nothing and
// fail safe. The exit scan is deliberately generous — any return,
// labeled break, goto, panic, runtime.Goexit, os.Exit, or log.Fatal
// inside the loop counts as a termination path, so only loops with no
// way out at all are reported. Findings point at the `go` statement
// (where //distec:nolint goroleak belongs) and name the offending loop.
func newGoroLeak() *Analyzer {
	a := &Analyzer{
		Name: "goroleak",
		Doc:  "flags go statements whose goroutine reaches an infinite loop with no return, break, or Goexit on any path",
	}
	// A callee's fact is its earliest leaky loop, directly or down its
	// static callees (nil: none).
	var loops *summary[*violation]
	loops = newSummary(func(m *Module, n *CGNode) *violation {
		return leakyLoopIn(m, loops, n.Decl.Body)
	})
	a.Run = func(p *Pass) {
		g := p.Module.CallGraph()
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				var loop *violation
				if lit, ok := unparen(gs.Call.Fun).(*ast.FuncLit); ok {
					loop = leakyLoopIn(p.Module, loops, lit.Body)
				} else if callee, ok := g.StaticCallee(gs.Call); ok {
					loop = loops.of(p.Module, callee)
				}
				if loop != nil {
					p.Reportf(gs.Pos(), "goroutine has no termination path: infinite loop at %s never returns or breaks — gate it on ctx.Done, Options.Interrupt, or a closed channel", p.Module.Fset.Position(loop.pos))
				}
				return true
			})
		}
	}
	return a
}

// leakyLoopIn returns the earliest infinite loop without a termination
// path reachable from body — directly, or through static callees. Nested
// function literals and nested go statements belong to other goroutines
// and are skipped (each `go` site gets its own check).
func leakyLoopIn(m *Module, loops *summary[*violation], body *ast.BlockStmt) *violation {
	var found *violation
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ForStmt:
			if n.Cond == nil && !forHasExit(n) {
				found = earliest(found, &violation{what: "infinite loop", pos: n.Pos()})
			}
		case *ast.CallExpr:
			if callee, ok := m.CallGraph().StaticCallee(n); ok {
				found = earliest(found, loops.of(m, callee))
			}
		}
		return true
	})
	return found
}

// forHasExit reports whether an infinite for loop's body contains any
// statement that leaves the loop (or the goroutine).
func forHasExit(loop *ast.ForStmt) bool {
	return stmtsHaveExit(loop.Body.List, true)
}

// stmtsHaveExit scans a statement list for a loop/goroutine exit.
// breakBinds tracks whether an unlabeled break here would terminate the
// loop under test (false once inside a nested for/range/switch/select,
// whose breaks bind locally).
func stmtsHaveExit(stmts []ast.Stmt, breakBinds bool) bool {
	for _, st := range stmts {
		if stmtHasExit(st, breakBinds) {
			return true
		}
	}
	return false
}

func stmtHasExit(st ast.Stmt, breakBinds bool) bool {
	switch st := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			// A labeled break targets some enclosing construct — assume it
			// can leave the loop (fail safe).
			return st.Label != nil || breakBinds
		case token.GOTO:
			return true // could jump past the loop; fail safe
		}
	case *ast.ExprStmt:
		if call, ok := unparen(st.X).(*ast.CallExpr); ok && isTerminator(call) {
			return true
		}
	case *ast.BlockStmt:
		return stmtsHaveExit(st.List, breakBinds)
	case *ast.LabeledStmt:
		return stmtHasExit(st.Stmt, breakBinds)
	case *ast.IfStmt:
		if stmtsHaveExit(st.Body.List, breakBinds) {
			return true
		}
		if st.Else != nil {
			return stmtHasExit(st.Else, breakBinds)
		}
	case *ast.ForStmt:
		return stmtsHaveExit(st.Body.List, false)
	case *ast.RangeStmt:
		return stmtsHaveExit(st.Body.List, false)
	case *ast.SwitchStmt:
		return clausesHaveExit(st.Body.List)
	case *ast.TypeSwitchStmt:
		return clausesHaveExit(st.Body.List)
	case *ast.SelectStmt:
		return clausesHaveExit(st.Body.List)
	}
	return false
}

func clausesHaveExit(clauses []ast.Stmt) bool {
	for _, c := range clauses {
		switch c := c.(type) {
		case *ast.CaseClause:
			if stmtsHaveExit(c.Body, false) {
				return true
			}
		case *ast.CommClause:
			if stmtsHaveExit(c.Body, false) {
				return true
			}
		}
	}
	return false
}

// isTerminator recognizes calls that end the goroutine outright.
func isTerminator(call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := unparen(fun.X).(*ast.Ident); ok {
			switch pkg.Name + "." + fun.Sel.Name {
			case "runtime.Goexit", "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln":
				return true
			}
		}
	}
	return false
}
