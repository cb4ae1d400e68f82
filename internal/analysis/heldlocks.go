package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// mutexRef is one mutex as a Lock/Unlock call names it.
type mutexRef struct {
	// expr is the locked expression as written ("s.mu"), for lockio's
	// messages and for matching an unlock to its lock.
	expr string
	// class is the declared field or variable locked, nil when the
	// expression names none; label prints it ("(persist.Log).mu"). The
	// class is the node of lockorder's acquired-while-held graph.
	class *types.Var
	label string
}

// mutexOp classifies call as an acquire (+1, Lock or RLock) or a
// release (-1, Unlock or RUnlock) of a sync.Mutex or sync.RWMutex, and
// names the mutex; delta is 0 for every other call.
func mutexOp(pkg *Package, call *ast.CallExpr) (ref mutexRef, delta int) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexRef{}, 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		delta = 1
	case "Unlock", "RUnlock":
		delta = -1
	default:
		return mutexRef{}, 0
	}
	info := pkg.Info
	named := derefNamed(info, sel.X)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return mutexRef{}, 0
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return mutexRef{}, 0
	}
	ref.expr = types.ExprString(sel.X)
	switch x := unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			owner := recvNamed(info, x)
			if owner == "" {
				owner = pkg.Types.Name()
			}
			ref.class, ref.label = v, fmt.Sprintf("(%s).%s", owner, x.Sel.Name)
		}
	case *ast.Ident:
		if v, ok := identObj(info, x).(*types.Var); ok {
			ref.class, ref.label = v, pkg.Types.Name()+"."+x.Name
		}
	}
	return ref, delta
}

// release drops the most recent acquisition of the mutex an unlock
// names, or — when the unlock names none held (an alias, a lock taken
// by the caller) — the most recent acquisition of all.
func release(held []mutexRef, ref mutexRef) []mutexRef {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].expr == ref.expr {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	if len(held) > 0 {
		return held[:len(held)-1]
	}
	return held
}

// lockWalk is the held-lock model lockio and lockorder share: a
// statement-order walk over function bodies that tracks which mutexes
// are held. The two hooks are where an analyzer observes it; acquire
// may be nil.
//
// The model is deliberately conservative. RLock counts as Lock
// (reader/writer pairs still deadlock against each other, and a read
// lock still turns device latency into hold time for writers). Branches
// are scanned with the lock state at their entry and do not change it
// for the statements after them: an unlock inside an if that returns
// does not release the lock for the code after the if. Deferred unlocks
// never release, and deferred calls run outside the scanned order.
// Goroutine bodies and function literals are skipped: a spawned
// goroutine holds none of its spawner's locks.
type lockWalk struct {
	pkg *Package
	// acquire sees each Lock/RLock with the mutexes already held.
	acquire func(call *ast.CallExpr, ref mutexRef, held []mutexRef)
	// call sees every other call made while at least one mutex is held;
	// held is never empty and its last element is the innermost mutex.
	call func(call *ast.CallExpr, held []mutexRef)
}

// funcs walks the body of every declared function in files.
func (w *lockWalk) funcs(files []*ast.File) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.stmts(fd.Body.List, nil)
			}
		}
	}
}

// stmts walks a statement list and returns the mutexes held at its end.
func (w *lockWalk) stmts(list []ast.Stmt, held []mutexRef) []mutexRef {
	for _, st := range list {
		held = w.stmt(st, held)
	}
	return held
}

func (w *lockWalk) stmt(st ast.Stmt, held []mutexRef) []mutexRef {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := unparen(st.X).(*ast.CallExpr); ok {
			switch ref, delta := mutexOp(w.pkg, call); {
			case delta > 0:
				if w.acquire != nil {
					w.acquire(call, ref, held)
				}
				return append(held, ref)
			case delta < 0:
				return release(held, ref)
			}
		}
		w.calls(st.X, held)
	case *ast.DeferStmt, *ast.GoStmt:
		// Runs at return or on another goroutine: outside the scanned
		// order, and a deferred unlock never releases.
	case *ast.BlockStmt:
		held = w.stmts(st.List, held)
	case *ast.LabeledStmt:
		held = w.stmt(st.Stmt, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = w.stmt(st.Init, held)
		}
		w.calls(st.Cond, held)
		w.stmts(st.Body.List, held)
		if st.Else != nil {
			w.stmt(st.Else, held)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			held = w.stmt(st.Init, held)
		}
		w.calls(st.Cond, held)
		w.stmts(st.Body.List, held)
	case *ast.RangeStmt:
		w.calls(st.X, held)
		w.stmts(st.Body.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = w.stmt(st.Init, held)
		}
		w.calls(st.Tag, held)
		w.clauses(st.Body, held)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held = w.stmt(st.Init, held)
		}
		w.calls(st.Assign, held)
		w.clauses(st.Body, held)
	case *ast.SelectStmt:
		w.clauses(st.Body, held)
	default:
		// Assignments, returns, sends, incdec: no lock transitions, but
		// their expressions make calls.
		w.calls(st, held)
	}
	return held
}

// clauses walks each case of a switch or select from the same state:
// its expressions or comm statement, then its body.
func (w *lockWalk) clauses(body *ast.BlockStmt, held []mutexRef) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.calls(e, held)
			}
			w.stmts(c.Body, held)
		case *ast.CommClause:
			w.calls(c.Comm, held)
			w.stmts(c.Body, held)
		}
	}
}

// calls hands every call inside n, outside function literals, to the
// call hook while mutexes are held.
func (w *lockWalk) calls(n ast.Node, held []mutexRef) {
	if n == nil || len(held) == 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.call(call, held)
		}
		return true
	})
}
