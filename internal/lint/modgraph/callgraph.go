package modgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// FuncNode is one module function (or method) in the conservative
// whole-program call graph. Function literals are not separate nodes: their
// bodies are attributed to the enclosing declaration, which soundly covers
// the dominant patterns (closures handed to worker pools, deferred funcs,
// goroutine bodies) without tracking function values through the heap.
type FuncNode struct {
	*FuncDecl // Obj is never nil and Decl always has a body
	// Callees are the functions this node may invoke, in source order.
	// External (non-module) callees are included; clients filter by whether
	// Graph.Node resolves them.
	Callees []Edge
}

// Edge is one call-graph edge at one call site.
type Edge struct {
	Callee *types.Func
	Pos    token.Pos
}

// Graph is the whole-program call graph plus the reverse adjacency
// caller-directed passes walk upward.
type Graph struct {
	Mod *Module
	// Funcs lists nodes in deterministic construction order (package, file,
	// decl).
	Funcs []*FuncNode
	Node  map[*types.Func]*FuncNode
	// Callers is the reverse adjacency: for each module function, the nodes
	// that may call it.
	Callers map[*types.Func][]*FuncNode
}

// Build walks every function declaration in the module, resolving call
// sites through go/types. Dynamic dispatch through module-declared
// interfaces is expanded to every module implementation; stdlib interfaces
// (io.Writer et al.) are not expanded — wiring every client to every module
// Write method would drown the analyses in false paths.
func Build(m *Module) *Graph {
	g := &Graph{
		Mod:     m,
		Node:    make(map[*types.Func]*FuncNode),
		Callers: make(map[*types.Func][]*FuncNode),
	}
	// Pass 1: declare nodes, so edge resolution can distinguish module
	// functions from externals.
	for _, d := range m.Bodies() {
		if d.Obj == nil {
			continue // type-checking failed for this decl
		}
		n := &FuncNode{FuncDecl: d}
		g.Funcs = append(g.Funcs, n)
		g.Node[d.Obj] = n
	}

	impls := newImplIndex(m)

	// Pass 2: edges.
	for _, n := range g.Funcs {
		g.scanBody(n, impls)
	}

	// Reverse adjacency.
	for _, n := range g.Funcs {
		seen := make(map[*types.Func]bool)
		for _, e := range n.Callees {
			if seen[e.Callee] {
				continue
			}
			seen[e.Callee] = true
			if _, ok := g.Node[e.Callee]; ok {
				g.Callers[e.Callee] = append(g.Callers[e.Callee], n)
			}
		}
	}
	return g
}

// scanBody collects n's call edges. Function literal bodies are scanned
// inline (attributed to n).
func (g *Graph) scanBody(n *FuncNode, impls *implIndex) {
	m := g.Mod
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := m.CalleeOf(call)
		if fn == nil {
			return true
		}
		if IsInterfaceMethod(fn) {
			// Dynamic dispatch: add one edge per module implementation, but
			// only for module-declared interfaces.
			if fn.Pkg() != nil && m.IsModulePkg(fn.Pkg()) {
				for _, impl := range impls.implementations(fn) {
					n.Callees = append(n.Callees, Edge{Callee: impl, Pos: call.Pos()})
				}
			}
			return true
		}
		n.Callees = append(n.Callees, Edge{Callee: fn, Pos: call.Pos()})
		return true
	})
}

// CallPath renders the call chain from the root of a BFS parent map down to
// n ("pkg.Root -> pkg.helper -> pkg.n").
func (g *Graph) CallPath(parent map[*FuncNode]*FuncNode, n *FuncNode) []string {
	var rev []string
	for cur := n; cur != nil; cur = parent[cur] {
		rev = append(rev, ShortFuncName(g.Mod.Path, cur.Obj))
	}
	slices.Reverse(rev)
	return rev
}

// IsInterfaceMethod reports whether fn is declared on an interface type.
func IsInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// implIndex maps interface methods to the module's concrete implementations.
type implIndex struct {
	named []*types.Named
	cache map[*types.Func][]*types.Func
}

// newImplIndex collects every package-level named (non-interface) type
// declared in the module, in deterministic package/scope order.
func newImplIndex(m *Module) *implIndex {
	idx := &implIndex{cache: make(map[*types.Func][]*types.Func)}
	for _, p := range m.Pkgs {
		tp, ok := m.TypesOf[p]
		if !ok {
			continue
		}
		scope := tp.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			idx.named = append(idx.named, named)
		}
	}
	return idx
}

// implementations returns the concrete module methods an interface-method
// call may dispatch to.
func (idx *implIndex) implementations(ifaceMethod *types.Func) []*types.Func {
	if out, ok := idx.cache[ifaceMethod]; ok {
		return out
	}
	var out []*types.Func
	sig, _ := ifaceMethod.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		idx.cache[ifaceMethod] = nil
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		idx.cache[ifaceMethod] = nil
		return nil
	}
	for _, named := range idx.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, ifaceMethod.Pkg(), ifaceMethod.Name())
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	idx.cache[ifaceMethod] = out
	return out
}
