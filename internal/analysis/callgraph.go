package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The module-wide call graph: a CHA-style (class-hierarchy analysis)
// over-approximation of "who can call whom" built from the same
// go/ast + go/types load the rest of the suite uses — zero dependencies,
// no SSA. Nodes are the module's declared functions and methods; edges
// come in three precisions:
//
//   - static: a direct call to a declared module function or to a method
//     on a concrete receiver. These are exact, and they are the only
//     edges the transitive analyzers (hotpath, lockio, lockorder,
//     goroleak) walk — following dynamic edges would drown real findings
//     in may-alias noise.
//   - interface: a call through a module-declared interface method,
//     edged to every module type implementing that interface (the CHA
//     step — e.g. a call on local.Engine reaches every engine).
//   - value: a function or method used as a value (assigned, passed,
//     stored in a function-typed field) — the reference itself, plus
//     calls through function-typed fields/variables resolved against
//     every declared function ever directly assigned to that exact
//     field/variable object.
//
// Known imprecision, on purpose: function values that flow through
// parameters or channels are not tracked (no dataflow), and calls
// through such values resolve to nothing. The analyzers that consume
// the graph are written so unresolved calls fail safe (no finding).

// EdgeKind classifies a call edge's resolution precision.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call to a declared function or concrete
	// method — exact.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a CHA edge: a call through a module interface
	// method, fanned to each implementing module type.
	EdgeInterface
	// EdgeValue is a function/method used as a value, or a call through a
	// function-typed field/variable resolved by its direct assignments.
	EdgeValue
)

// String renders the kind for goldens and diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	default:
		return "value"
	}
}

// CGNode is one declared function or method of the module.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// String is the node's fully qualified name, e.g.
// "(*example.com/m/pkg.T).M" or "example.com/m/pkg.F".
func (n *CGNode) String() string { return n.Fn.FullName() }

// CGEdge is one possible call, positioned at the site that induces it.
type CGEdge struct {
	Caller *CGNode
	Callee *CGNode
	Kind   EdgeKind
	Pos    token.Pos
}

// String renders "caller -> callee [kind]" for goldens.
func (e CGEdge) String() string {
	return fmt.Sprintf("%s -> %s [%s]", e.Caller, e.Callee, e.Kind)
}

// CallGraph is the module-wide call graph; build via Module.CallGraph.
type CallGraph struct {
	nodes  map[*types.Func]*CGNode
	static map[*ast.CallExpr]*CGNode
	edges  []CGEdge
}

// CallGraph returns the module's call graph, building it on first use.
// The graph always spans the whole module (every package, regardless of
// any package selection), so cross-package transitive analyses see the
// full picture.
func (m *Module) CallGraph() *CallGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m)
	}
	return m.cg
}

// Edges returns every edge, deterministically ordered (caller, callee,
// kind).
func (g *CallGraph) Edges() []CGEdge { return g.edges }

// StaticCallee resolves a call expression to the module function it
// directly invokes — the exact edges. Interface and value calls return
// (nil, false): transitive analyzers must fail safe on them.
func (g *CallGraph) StaticCallee(call *ast.CallExpr) (*CGNode, bool) {
	n, ok := g.static[call]
	return n, ok
}

// summary memoizes a per-function fact over the static call graph:
// scan computes it from one declared function's body, reading its
// static callees' facts through of. A function already on the stack
// reads as the zero value, "nothing found", which ends the recursion on
// a cycle. A result that read such a function is provisional — a fact
// reachable only through the unfinished caller is missing from it — so
// it is not memoized: only the outermost function of the cycle the scan
// entered gets a final result, and the others are computed again, on
// demand, against it. The scans join facts independently of order, so
// no result depends on which caller asked first.
type summary[T any] struct {
	scan  func(m *Module, n *CGNode) T
	memo  map[*CGNode]T
	depth map[*CGNode]int // stack depth of each function being scanned
	low   int             // shallowest stack depth the running scan read
}

func newSummary[T any](scan func(m *Module, n *CGNode) T) *summary[T] {
	return &summary[T]{scan: scan, memo: map[*CGNode]T{}, depth: map[*CGNode]int{}}
}

// of returns n's fact, computing it on first use.
func (s *summary[T]) of(m *Module, n *CGNode) T {
	if v, ok := s.memo[n]; ok {
		return v
	}
	if d, ok := s.depth[n]; ok {
		s.low = min(s.low, d)
		var zero T
		return zero
	}
	d, outer := len(s.depth), s.low
	s.depth[n], s.low = d, d
	v := s.scan(m, n)
	delete(s.depth, n)
	if s.low >= d {
		s.memo[n] = v
	}
	s.low = min(outer, s.low)
	return v
}

// violation is one offending site found down a call chain (blocking
// I/O for lockio, a steady-state allocation for hotpath, an endless loop
// for goroleak), reported at the call site that reaches it.
type violation struct {
	what string
	pos  token.Pos
}

// earliest joins two findings: the one first in the file set, nil only
// when both are. A summary that keeps the earliest site it can reach
// names the same witness whatever order it was computed in.
func earliest(a, b *violation) *violation {
	if a == nil || (b != nil && b.pos < a.pos) {
		return b
	}
	return a
}

// edgeKey dedupes edges: one (caller, callee, kind) triple is recorded
// once, at its first site in declaration order.
type edgeKey struct {
	caller, callee *CGNode
	kind           EdgeKind
}

type cgBuilder struct {
	m     *Module
	g     *CallGraph
	seen  map[edgeKey]bool
	iface map[*types.Func][]*CGNode // interface method -> implementing methods
	assig map[*types.Var][]*CGNode  // func-typed field/var -> assigned functions
}

func buildCallGraph(m *Module) *CallGraph {
	b := &cgBuilder{
		m: m,
		g: &CallGraph{
			nodes:  map[*types.Func]*CGNode{},
			static: map[*ast.CallExpr]*CGNode{},
		},
		seen:  map[edgeKey]bool{},
		iface: map[*types.Func][]*CGNode{},
		assig: map[*types.Var][]*CGNode{},
	}
	b.collectNodes()
	b.indexInterfaces()
	b.indexAssignments()
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					b.walkBody(b.g.nodes[fn], pkg)
				}
			}
		}
	}
	sort.SliceStable(b.g.edges, func(i, j int) bool {
		a, c := b.g.edges[i], b.g.edges[j]
		if a.Caller.String() != c.Caller.String() {
			return a.Caller.String() < c.Caller.String()
		}
		if a.Callee.String() != c.Callee.String() {
			return a.Callee.String() < c.Callee.String()
		}
		return a.Kind < c.Kind
	})
	return b.g
}

// collectNodes indexes every declared function/method with a body.
func (b *cgBuilder) collectNodes() {
	for _, pkg := range b.m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					b.g.nodes[fn] = &CGNode{Fn: fn, Decl: fd, Pkg: pkg}
				}
			}
		}
	}
}

// indexInterfaces is the CHA step: for every interface declared in the
// module, map each of its methods to the concrete module methods that
// implement it.
func (b *cgBuilder) indexInterfaces() {
	var ifaces, concretes []*types.Named
	for _, pkg := range b.m.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				ifaces = append(ifaces, named)
			} else {
				concretes = append(concretes, named)
			}
		}
	}
	for _, in := range ifaces {
		iface := in.Underlying().(*types.Interface)
		for _, cn := range concretes {
			ptr := types.NewPointer(cn)
			if !types.Implements(cn, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name())
				impl, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				if node := b.g.nodes[impl]; node != nil {
					b.iface[im] = append(b.iface[im], node)
				}
			}
		}
	}
}

// indexAssignments records, for every function-typed field or variable,
// the declared functions directly assigned to it — `x.fn = f`,
// `var h = f`, `T{fn: f}`. Values flowing through parameters, returns,
// or channels are not tracked; calls through such variables stay
// unresolved.
func (b *cgBuilder) indexAssignments() {
	record := func(pkg *Package, lhsObj types.Object, rhs ast.Expr) {
		v, ok := lhsObj.(*types.Var)
		if !ok {
			return
		}
		fn := funcRef(pkg.Info, rhs)
		if fn == nil {
			return
		}
		if node := b.g.nodes[fn]; node != nil {
			b.assig[v] = append(b.assig[v], node)
		}
	}
	for _, pkg := range b.m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i, lhs := range n.Lhs {
						if id := rootFieldOrVar(pkg.Info, lhs); id != nil {
							record(pkg, id, n.Rhs[i])
						}
					}
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if i < len(n.Values) {
							record(pkg, identObj(pkg.Info, name), n.Values[i])
						}
					}
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok {
							record(pkg, identObj(pkg.Info, key), kv.Value)
						}
					}
				}
				return true
			})
		}
	}
}

// rootFieldOrVar resolves an assignment target to the field or variable
// object it stores into: x -> x's object, x.f (any depth of prefix) ->
// f's object.
func rootFieldOrVar(info *types.Info, lhs ast.Expr) types.Object {
	switch e := unparen(lhs).(type) {
	case *ast.Ident:
		return identObj(info, e)
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// funcRef resolves an expression to the declared function it references
// as a value (identifier or method/package selector), nil otherwise.
func funcRef(info *types.Info, e ast.Expr) *types.Func {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// walkBody records every out-edge of one declared function. Calls and
// references inside nested function literals are attributed to the
// declaring function — the literal runs with its lexical environment,
// and the graph's consumers do their own literal-aware AST walks where
// synchronous-only semantics matter.
func (b *cgBuilder) walkBody(caller *CGNode, pkg *Package) {
	if caller == nil {
		return
	}
	info := pkg.Info
	// First pass: resolve calls, remember which idents/selectors are call
	// operands so the value pass does not double-count them.
	asCallFun := map[ast.Node]bool{}
	ast.Inspect(caller.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := unparen(call.Fun)
		asCallFun[fun] = true
		switch obj := calleeObj(info, call).(type) {
		case *types.Func:
			sig, ok := obj.Type().(*types.Signature)
			if !ok {
				return true
			}
			if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
				for _, impl := range b.iface[obj] {
					b.addEdge(caller, impl, EdgeInterface, call.Pos())
				}
				return true
			}
			if callee := b.g.nodes[obj]; callee != nil {
				b.addEdge(caller, callee, EdgeStatic, call.Pos())
				b.g.static[call] = callee
			}
		case *types.Var:
			// Call through a function-typed field/variable: resolve against
			// its recorded direct assignments.
			for _, callee := range b.assig[obj] {
				b.addEdge(caller, callee, EdgeValue, call.Pos())
			}
		}
		return true
	})
	// Second pass: function and method values (references that are not the
	// operand of a call) — each is a potential call by whoever receives it.
	ast.Inspect(caller.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if asCallFun[n] {
				return true
			}
			if fn, ok := info.Uses[n.Sel].(*types.Func); ok {
				if callee := b.g.nodes[fn]; callee != nil {
					b.addEdge(caller, callee, EdgeValue, n.Pos())
				}
				return false // n.Sel would re-trigger the Ident case below
			}
		case *ast.Ident:
			if asCallFun[n] {
				return true
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				if callee := b.g.nodes[fn]; callee != nil {
					b.addEdge(caller, callee, EdgeValue, n.Pos())
				}
			}
		}
		return true
	})
}

func (b *cgBuilder) addEdge(caller, callee *CGNode, kind EdgeKind, pos token.Pos) {
	key := edgeKey{caller, callee, kind}
	if b.seen[key] {
		return
	}
	b.seen[key] = true
	b.g.edges = append(b.g.edges, CGEdge{Caller: caller, Callee: callee, Kind: kind, Pos: pos})
}
