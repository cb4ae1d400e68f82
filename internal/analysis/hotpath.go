package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// newHotPath builds the hotpath analyzer. Functions marked
// //distec:hotpath are the per-round engine loops, mailbox delivery,
// the per-round receives of Linial's reducer and the greedy base, the
// solver's per-member list pruning and the WAL append path — code
// the benchmarks hold to near-zero allocation and the ≤2%
// disabled-tracer overhead gate. Inside a marked function the analyzer
// flags:
//
//   - fmt.* calls, unless the innermost enclosing block is a nested
//     early-exit ending in return (the cold error-path shape);
//   - closures that capture variables (each allocates per execution);
//   - map allocations (literals or make) and channel allocations
//     (make), same cold-path exemption;
//   - append whose result is not assigned back to its own source
//     (a fresh backing array per call instead of amortized reuse);
//   - calls into the trace package not dominated by a nil check — the
//     disabled-tracer cost model is one pointer test per round, which
//     only holds when every emission sits behind a guard;
//   - calls whose static callee (transitively, through the module call
//     graph) formats with fmt or allocates a map or channel on its own
//     steady-state path — an allocation two calls below the marked
//     function is the same bug as one inside it. Callees marked
//     //distec:hotpath are exempt here (they are checked directly), as
//     are callee sites carrying an in-place //distec:nolint hotpath.
func newHotPath() *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "flags fmt, capturing closures, map and channel allocation, fresh-slice append, and unguarded trace calls inside (or statically reachable from) //distec:hotpath functions",
	}
	var sums *summary[*violation]
	// A callee's fact is the earliest steady-state allocation on its own
	// path or down its static callees; callees marked //distec:hotpath
	// are checked directly, and cold paths and sites justified in place
	// are skipped.
	sums = newSummary(func(m *Module, n *CGNode) *violation {
		var found *violation
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false // other goroutines / deferred closures: separate cost
			case *ast.CallExpr, *ast.CompositeLit:
				if coldPath(n.Decl, node.Pos()) || m.posSuppressed(node.Pos(), "hotpath") {
					return true
				}
				if what, _ := steadyAlloc(n.Pkg.Info, node); what != "" {
					found = earliest(found, &violation{what: what, pos: node.Pos()})
				} else if call, ok := node.(*ast.CallExpr); ok {
					if callee, ok := m.CallGraph().StaticCallee(call); ok && !isHotPath(callee.Decl) {
						found = earliest(found, sums.of(m, callee))
					}
				}
			}
			return true
		})
		return found
	})
	a.Run = func(p *Pass) {
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil && isHotPath(fd) {
					checkHotFunc(p, fd, sums)
				}
			}
		}
	}
	return a
}

// steadyAlloc classifies n as one of the allocations a hot path must
// keep off its steady state: an fmt call, a make of a map or channel, or
// a map literal. what names it for transitive findings and msg is the
// direct finding; both are "" for anything else.
func steadyAlloc(info *types.Info, n ast.Node) (what, msg string) {
	underlying := func(e ast.Expr) types.Type {
		if tv, ok := info.Types[e]; ok && tv.Type != nil {
			return tv.Type.Underlying()
		}
		return nil
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		if callPkgPath(info, n) == "fmt" {
			what = types.ExprString(n.Fun)
			return what, what + " in hot path: fmt formats through interfaces and allocates"
		}
		if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "make" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				switch underlying(n).(type) {
				case *types.Map:
					return "map allocation", "map allocated in hot path: hoist it out of the per-round loop and reuse"
				case *types.Chan:
					return "channel allocation", "channel allocated in hot path: make it once, or only when a receiver waits"
				}
			}
		}
	case *ast.CompositeLit:
		if _, ok := underlying(n).(*types.Map); ok {
			return "map literal", "map literal in hot path: hoist it out of the per-round loop and reuse"
		}
	}
	return "", ""
}

// coldPath reports whether pos sits in a nested block of fd that
// terminates in return — an early-exit error path, not steady-state
// round work.
func coldPath(fd *ast.FuncDecl, pos token.Pos) bool {
	list, top := enclosingStmtList(fd, pos)
	return !top && endsInReturn(list)
}

func checkHotFunc(p *Pass, fd *ast.FuncDecl, sums *summary[*violation]) {
	info := p.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if what, msg := steadyAlloc(info, n); what != "" && !coldPath(fd, n.Pos()) {
			p.Reportf(n.Pos(), "%s", msg)
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if tracerCall(p, n) && !nilGuarded(fd, n.Pos()) {
				p.Reportf(n.Pos(), "unguarded tracer call %s in hot path: wrap in an `if x != nil` so the disabled cost stays one pointer test", types.ExprString(n.Fun))
			}
			if callee, ok := p.Module.CallGraph().StaticCallee(n); ok && !isHotPath(callee.Decl) && !coldPath(fd, n.Pos()) {
				if v := sums.of(p.Module, callee); v != nil {
					p.Reportf(n.Pos(), "call to %s in hot path transitively reaches %s at %s on its steady-state path", callee.Fn.Name(), v.what, p.Module.Fset.Position(v.pos))
				}
			}
		case *ast.FuncLit:
			if captured := closureCaptures(info, fd, n); captured != "" {
				p.Reportf(n.Pos(), "closure capturing %s in hot path: allocates per execution; hoist it to a method or prebound field", captured)
			}
			return false // its body is the closure's cost, already priced in
		case *ast.AssignStmt:
			checkFreshAppend(p, fd, n)
		}
		return true
	})
}

// checkFreshAppend flags append results not assigned back to the
// expression they grew from — each such call builds a fresh backing
// array instead of amortizing one.
func checkFreshAppend(p *Pass, fd *ast.FuncDecl, n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, rhs := range n.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok || !isAppendCall(p.Pkg.Info, call) || len(call.Args) == 0 {
			continue
		}
		lhs, src := types.ExprString(n.Lhs[i]), types.ExprString(call.Args[0])
		if lhs != src && !coldPath(fd, n.Pos()) {
			p.Reportf(n.Pos(), "append to fresh slice in hot path: result goes to %s, not back to %s, so every call reallocates", lhs, src)
		}
	}
}

// tracerCall reports whether call invokes a method or function of the
// configured trace package.
func tracerCall(p *Pass, call *ast.CallExpr) bool {
	obj := calleeObj(p.Pkg.Info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return hasPathSuffix(obj.Pkg().Path(), p.Config.TracePkgSuffix)
}

// nilGuarded reports whether pos sits inside the body of an if whose
// condition contains a `!= nil` test — the dominating guard shape the
// engines use (`if x.span != nil { x.span.Round(ev) }`), including as a
// conjunct of &&.
func nilGuarded(fd *ast.FuncDecl, pos token.Pos) bool {
	guarded := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if guarded || n == nil || !within(n, pos) {
			return false
		}
		if ifs, ok := n.(*ast.IfStmt); ok && within(ifs.Body, pos) && condHasNilCheck(ifs.Cond) {
			guarded = true
		}
		return true
	})
	return guarded
}

func condHasNilCheck(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.NEQ {
			if isNilIdent(b.X) || isNilIdent(b.Y) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// closureCaptures returns a printable name of one variable the closure
// captures from fd's scope ("" when it captures nothing — a
// non-capturing func literal compiles to a static function and is free).
func closureCaptures(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level, not captured
		}
		// Declared outside the literal but inside the enclosing function:
		// that is a capture.
		if !within(lit, v.Pos()) && within(fd, v.Pos()) {
			captured = v.Name()
		}
		return true
	})
	return captured
}
