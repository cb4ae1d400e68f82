package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// newLockIO builds the lockio analyzer: a linear, intraprocedural scan
// that flags blocking I/O reachable while a sync.Mutex/RWMutex locked
// in the same function is still held. Such a call turns device latency
// (a slow fsync, a throttled disk) into lock hold time for every other
// goroutine queued on the mutex — the failure mode that makes a p999
// cliff out of one bad write.
//
// Blocking I/O here means: *os.File writes/Sync/Close, os package
// filesystem calls, any niladic-looking Sync/Flush method (fsync and
// buffered-writer flushes on wrapper types), and calls through fields
// whose name contains "journal" (the persistence hook seam). Sites
// where I/O under the lock is the documented design — the WAL append
// path serializes writes by construction — carry //distec:nolint lockio
// with a justification.
//
// Which locks are held follows the conservative held-lock model lockio
// shares with lockorder (lockWalk).
//
// The check is transitive through the module call graph: a call made
// under the lock whose static callee (at any depth) performs blocking
// I/O is the same bug as the I/O inlined, and is reported at the call
// site under the lock. Callee I/O sites carrying an in-place
// //distec:nolint lockio are part of a documented design and do not
// propagate to callers; dynamic calls resolve to nothing and fail safe.
func newLockIO() *Analyzer {
	a := &Analyzer{
		Name: "lockio",
		Doc:  "flags blocking I/O (file writes, fsync, os calls, journal hooks) reachable, directly or through static callees, while a mutex locked in the same function is held",
	}
	var sums *summary[*violation]
	// A callee's fact is its earliest blocking-I/O call, directly or
	// further down its static callees, skipping sites justified in place.
	sums = newSummary(func(m *Module, n *CGNode) *violation {
		var found *violation
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false // runs on another goroutine or at return
			case *ast.CallExpr:
				if m.posSuppressed(node.Pos(), "lockio") {
					return true
				}
				if what := blockingIO(n.Pkg.Info, node); what != "" {
					found = earliest(found, &violation{what: what, pos: node.Pos()})
				} else if callee, ok := m.CallGraph().StaticCallee(node); ok {
					found = earliest(found, sums.of(m, callee))
				}
			}
			return true
		})
		return found
	})
	a.Run = func(p *Pass) {
		w := &lockWalk{pkg: p.Pkg, call: func(call *ast.CallExpr, held []mutexRef) {
			lock := held[len(held)-1].expr
			if what := blockingIO(p.Pkg.Info, call); what != "" {
				p.Reportf(call.Pos(), "blocking I/O (%s) while %s is held: device latency becomes lock hold time", what, lock)
				return
			}
			if callee, ok := p.Module.CallGraph().StaticCallee(call); ok {
				if v := sums.of(p.Module, callee); v != nil {
					p.Reportf(call.Pos(), "call to %s while %s is held transitively performs blocking I/O (%s at %s): device latency becomes lock hold time",
						callee.Fn.Name(), lock, v.what, p.Module.Fset.Position(v.pos))
				}
			}
		}}
		w.funcs(p.Pkg.Files)
	}
	return a
}

// blockingIO classifies call as blocking I/O, returning a short
// description ("" when it is not).
func blockingIO(info *types.Info, call *ast.CallExpr) string {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		// Field-valued callee whose name smells like the journal hook.
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			if strings.Contains(strings.ToLower(name), "journal") {
				return "journal hook " + types.ExprString(call.Fun)
			}
			return ""
		}
		// Method on *os.File.
		if recvNamed(info, sel) == "os.File" {
			switch name {
			case "Write", "WriteString", "WriteAt", "ReadFrom", "Sync", "Truncate", "Close", "Read", "ReadAt", "Seek":
				return "os.File." + name
			}
		}
		// fsync/flush-shaped methods on wrapper types (WAL files,
		// buffered writers): the name is the contract.
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok && obj.Type().(*types.Signature).Recv() != nil {
			if name == "Sync" || name == "Flush" {
				return types.ExprString(call.Fun)
			}
		}
	}
	if obj, ok := calleeObj(info, call).(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "os" &&
		obj.Type().(*types.Signature).Recv() == nil {
		switch obj.Name() {
		case "Create", "CreateTemp", "Open", "OpenFile", "Rename", "Remove", "RemoveAll",
			"WriteFile", "ReadFile", "Mkdir", "MkdirAll", "MkdirTemp", "ReadDir",
			"Stat", "Lstat", "Truncate", "Link", "Symlink", "Chmod", "Chtimes":
			return "os." + obj.Name()
		}
	}
	return ""
}

// recvNamed returns "pkg.Type" for a method selector's receiver type
// (dereferenced), or "".
func recvNamed(info *types.Info, sel *ast.SelectorExpr) string {
	named := derefNamed(info, sel.X)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

// derefNamed returns the named type of e, looking through a pointer;
// nil when that type is unnamed or unknown.
func derefNamed(info *types.Info, e ast.Expr) *types.Named {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
