package modsafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// The lockorder pass builds a global lock-acquisition-order graph and
// reports cycles — the classic ABBA deadlock shape, which no amount of
// testing reliably reproduces because it needs two goroutines to interleave
// just so.
//
// Lock identity is the *types.Var of a sync.Mutex / sync.RWMutex struct
// field or package-level variable, so every instance of Hypervisor.mu is one
// node: ordering is a property of the code, not of particular values. Each
// function body is scanned in source order maintaining the set of locks
// held — Lock/RLock adds, Unlock/RUnlock removes, a deferred unlock keeps
// the lock held to the end — and every acquisition performed while another
// lock is held adds an ordering edge held→acquired. Calls made under a lock
// pull in the callee's transitively-acquired locks (a fixpoint over the
// modgraph call graph), so an edge exists even when the two acquisitions are
// three calls apart.
//
// Findings:
//
//   - a self-edge is a recursive acquisition (sync.Mutex self-deadlocks);
//   - a two-node cycle reports both acquisition paths, so the diagnostic
//     reads as "this path takes A then B, that path takes B then A";
//   - a larger strongly-connected component reports one deterministic cycle
//     through it.
//
// A //modlint:ignore lockorder directive on an acquisition or call site
// stops that site from contributing edges (the lock still counts as held, so
// suppression never invents a bogus unlock).

// lockInfo names one lock node in the ordering graph.
type lockInfo struct {
	v     *types.Var
	label string // "Hypervisor.mu" for fields, "pkg.mu" for package vars
}

// acqEdge is one ordering edge held→acquired with its first witness.
type acqEdge struct {
	from, to *types.Var
	pos      token.Pos // the site that created the edge
	pkg      *lint.Package
	path     []string // call chain from the holding function to the acquisition
}

// lockOrder runs the pass over the whole module.
func lockOrder(g *modgraph.Graph, sup lint.SuppressionSet) []lint.Finding {
	m := g.Mod
	locks := collectLocks(m)
	if len(locks) == 0 {
		return nil
	}

	// Per-function summaries: direct acquisitions with the held set at that
	// point, and call sites with the held set at that point.
	sums := make(map[*modgraph.FuncNode]*lockSummary)
	for _, n := range g.Funcs {
		sums[n] = summarize(m, n, locks)
	}

	trans := transitiveAcquires(g, sums)

	// Edge construction. The first witness for a (from, to) pair wins;
	// g.Funcs order is deterministic, so the output is too.
	edges := make(map[[2]*types.Var]*acqEdge)
	addEdge := func(from, to *types.Var, pos token.Pos, pkg *lint.Package, path []string) {
		key := [2]*types.Var{from, to}
		if _, ok := edges[key]; ok {
			return
		}
		edges[key] = &acqEdge{from: from, to: to, pos: pos, pkg: pkg, path: path}
	}
	var order [][2]*types.Var // insertion order for deterministic iteration
	for _, n := range g.Funcs {
		s := sums[n]
		fname := modgraph.ShortFuncName(m.Path, n.Obj)
		for _, a := range s.acqs {
			pos := n.Pkg.Fset.Position(a.pos)
			if sup.Suppressed(pos.Filename, pos.Line, "lockorder") {
				continue
			}
			for _, h := range a.held {
				key := [2]*types.Var{h, a.lock}
				if _, ok := edges[key]; !ok {
					order = append(order, key)
				}
				addEdge(h, a.lock, a.pos, n.Pkg, []string{fname})
			}
		}
		for _, c := range s.calls {
			if len(c.held) == 0 {
				continue
			}
			cn, ok := g.Node[c.callee]
			if !ok {
				continue
			}
			pos := n.Pkg.Fset.Position(c.pos)
			if sup.Suppressed(pos.Filename, pos.Line, "lockorder") {
				continue
			}
			for _, t := range trans.locksOf(cn) {
				path := append([]string{fname}, trans.witness(g, cn, t)...)
				for _, h := range c.held {
					key := [2]*types.Var{h, t}
					if _, ok := edges[key]; !ok {
						order = append(order, key)
					}
					addEdge(h, t, c.pos, n.Pkg, path)
				}
			}
		}
	}

	return reportCycles(m, locks, edges, order)
}

// lockSummary is one function's direct lock behavior.
type lockSummary struct {
	acqs  []lockAcq
	calls []lockCall
}

type lockAcq struct {
	lock *types.Var
	pos  token.Pos
	held []*types.Var // snapshot, in acquisition order
}

type lockCall struct {
	callee *types.Func
	pos    token.Pos
	held   []*types.Var
}

// collectLocks finds every sync.Mutex / sync.RWMutex struct field and
// package-level variable in the module and labels it.
func collectLocks(m *modgraph.Module) map[*types.Var]*lockInfo {
	locks := make(map[*types.Var]*lockInfo)
	m.EachFile(func(_ *lint.Package, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						v, ok := m.Info.Defs[name].(*types.Var)
						if ok && isMutexType(v.Type()) {
							locks[v] = &lockInfo{v: v, label: n.Name.Name + "." + name.Name}
						}
					}
				}
				return false
			case *ast.ValueSpec:
				for _, name := range n.Names {
					v, ok := m.Info.Defs[name].(*types.Var)
					if ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() && isMutexType(v.Type()) {
						locks[v] = &lockInfo{v: v, label: v.Pkg().Name() + "." + name.Name}
					}
				}
			}
			return true
		})
	})
	return locks
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind one pointer).
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// summarize scans one function body in source order, maintaining the held
// set. Function literals are scanned with a fresh held set (their bodies run
// at some other time) but contribute to the same summary, mirroring how the
// call graph attributes their calls to the enclosing declaration.
func summarize(m *modgraph.Module, n *modgraph.FuncNode, locks map[*types.Var]*lockInfo) *lockSummary {
	s := &lockSummary{}
	scanLockBody(m, n.Decl.Body, locks, s)
	return s
}

func scanLockBody(m *modgraph.Module, body *ast.BlockStmt, locks map[*types.Var]*lockInfo, s *lockSummary) {
	var held []*types.Var
	remove := func(v *types.Var) {
		for i, h := range held {
			if h == v {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	snapshot := func() []*types.Var {
		return append([]*types.Var(nil), held...)
	}

	var inDefer int
	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			scanLockBody(m, node.Body, locks, s)
			return false
		case *ast.DeferStmt:
			// A deferred unlock releases at return, which is after every
			// acquisition in the body: the lock stays in the held set. A
			// deferred lock (pathological) is ignored the same way.
			inDefer++
			ast.Inspect(node.Call, walk)
			inDefer--
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr)
			if ok {
				if v := lockOperand(m, sel, locks); v != nil {
					switch sel.Sel.Name {
					case "Lock", "RLock":
						if inDefer == 0 {
							s.acqs = append(s.acqs, lockAcq{lock: v, pos: node.Pos(), held: snapshot()})
							held = append(held, v)
						}
						return false
					case "Unlock", "RUnlock":
						if inDefer == 0 {
							remove(v)
						}
						return false
					case "TryLock", "TryRLock":
						// Conditional acquisition: record the edge but don't
						// track the held state (the scan is path-insensitive
						// and TryLock failure is the common branch).
						s.acqs = append(s.acqs, lockAcq{lock: v, pos: node.Pos(), held: snapshot()})
						return false
					}
				}
			}
			if callee := m.CalleeOf(node); callee != nil {
				s.calls = append(s.calls, lockCall{callee: callee, pos: node.Pos(), held: snapshot()})
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

// lockOperand resolves the receiver of a Lock-family selector to a known
// lock variable: x.mu.Lock() (field) or mu.Lock() (package var).
func lockOperand(m *modgraph.Module, sel *ast.SelectorExpr, locks map[*types.Var]*lockInfo) *types.Var {
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if s, ok := m.Info.Selections[x]; ok {
			if v, ok := s.Obj().(*types.Var); ok && locks[v] != nil {
				return v
			}
		}
	case *ast.Ident:
		if v, ok := m.ObjOf(x).(*types.Var); ok && locks[v] != nil {
			return v
		}
	}
	return nil
}

// transAcq tracks, per function, the set of locks it may transitively
// acquire and a witness call step for each.
type transAcq struct {
	locks map[*modgraph.FuncNode]map[*types.Var]transStep
}

// transStep is one step of a witness chain: either a direct acquisition
// (via == nil) or "calls via, which acquires it".
type transStep struct {
	via *types.Func
	pos token.Pos
}

// transitiveAcquires runs a worklist fixpoint: a function acquires what it
// locks directly plus whatever its callees transitively acquire. Cycles in
// the call graph converge because the sets only grow.
func transitiveAcquires(g *modgraph.Graph, sums map[*modgraph.FuncNode]*lockSummary) *transAcq {
	t := &transAcq{locks: make(map[*modgraph.FuncNode]map[*types.Var]transStep)}
	add := func(n *modgraph.FuncNode, v *types.Var, step transStep) bool {
		set := t.locks[n]
		if set == nil {
			set = make(map[*types.Var]transStep)
			t.locks[n] = set
		}
		if _, ok := set[v]; ok {
			return false
		}
		set[v] = step
		return true
	}
	for _, n := range g.Funcs {
		for _, a := range sums[n].acqs {
			add(n, a.lock, transStep{pos: a.pos})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Funcs {
			for _, c := range sums[n].calls {
				cn, ok := g.Node[c.callee]
				if !ok {
					continue
				}
				for v := range t.locks[cn] {
					if add(n, v, transStep{via: c.callee, pos: c.pos}) {
						changed = true
					}
				}
			}
		}
	}
	return t
}

// locksOf returns n's transitively-acquired locks in deterministic
// (position) order.
func (t *transAcq) locksOf(n *modgraph.FuncNode) []*types.Var {
	set := t.locks[n]
	if len(set) == 0 {
		return nil
	}
	out := make([]*types.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// witness renders the call chain from n to its acquisition of v.
func (t *transAcq) witness(g *modgraph.Graph, n *modgraph.FuncNode, v *types.Var) []string {
	var out []string
	for range g.Funcs { // bounded: each step moves to a new function
		step, ok := t.locks[n][v]
		if !ok || step.via == nil {
			out = append(out, modgraph.ShortFuncName(g.Mod.Path, n.Obj))
			return out
		}
		out = append(out, modgraph.ShortFuncName(g.Mod.Path, n.Obj))
		next, ok := g.Node[step.via]
		if !ok {
			return out
		}
		n = next
	}
	return out
}

// reportCycles finds self-edges, two-cycles, and larger strongly-connected
// components in the ordering graph.
func reportCycles(m *modgraph.Module, locks map[*types.Var]*lockInfo, edges map[[2]*types.Var]*acqEdge, order [][2]*types.Var) []lint.Finding {
	label := func(v *types.Var) string { return locks[v].label }
	var out []lint.Finding

	// Self-edges: recursive acquisition of a non-reentrant lock.
	for _, key := range order {
		if key[0] != key[1] {
			continue
		}
		e := edges[key]
		out = append(out, lint.Finding{
			Pos:  e.pkg.Fset.Position(e.pos),
			Rule: "lockorder",
			Msg: fmt.Sprintf("%s acquired while already held (path: %s); sync mutexes are not reentrant, this self-deadlocks",
				label(key[0]), strings.Join(e.path, " -> ")),
		})
	}

	// Two-cycles: both orderings observed. Report once per unordered pair,
	// anchored at the edge seen first, with both witness paths.
	reportedPair := make(map[[2]*types.Var]bool)
	inTwoCycle := make(map[*types.Var]bool)
	for _, key := range order {
		a, b := key[0], key[1]
		if a == b {
			continue
		}
		back, ok := edges[[2]*types.Var{b, a}]
		if !ok {
			continue
		}
		pairKey := [2]*types.Var{a, b}
		if label(b) < label(a) {
			pairKey = [2]*types.Var{b, a}
		}
		if reportedPair[pairKey] {
			continue
		}
		reportedPair[pairKey] = true
		inTwoCycle[a], inTwoCycle[b] = true, true
		e := edges[key]
		out = append(out, lint.Finding{
			Pos:  e.pkg.Fset.Position(e.pos),
			Rule: "lockorder",
			Msg: fmt.Sprintf("lock order cycle: %s -> %s (path: %s) but %s -> %s at %s (path: %s); one order must be picked",
				label(a), label(b), strings.Join(e.path, " -> "),
				label(b), label(a), shortPos(back.pkg, back.pos), strings.Join(back.path, " -> ")),
		})
	}

	// Larger cycles: SCCs of size >= 3 whose members aren't already covered
	// by a two-cycle report get one deterministic cycle walk.
	for _, scc := range sccs(edges, order) {
		if len(scc) < 3 {
			continue
		}
		covered := true
		for _, v := range scc {
			if !inTwoCycle[v] {
				covered = false
				break
			}
		}
		if covered {
			continue
		}
		sort.Slice(scc, func(i, j int) bool { return label(scc[i]) < label(scc[j]) })
		names := make([]string, len(scc))
		for i, v := range scc {
			names[i] = label(v)
		}
		// Anchor at the first recorded edge inside the component.
		var anchor *acqEdge
		inSCC := make(map[*types.Var]bool, len(scc))
		for _, v := range scc {
			inSCC[v] = true
		}
		for _, key := range order {
			if inSCC[key[0]] && inSCC[key[1]] && key[0] != key[1] {
				anchor = edges[key]
				break
			}
		}
		if anchor == nil {
			continue
		}
		out = append(out, lint.Finding{
			Pos:  anchor.pkg.Fset.Position(anchor.pos),
			Rule: "lockorder",
			Msg: fmt.Sprintf("lock order cycle through %s; impose a total acquisition order",
				strings.Join(names, ", ")),
		})
	}
	return out
}

// shortPos renders a position as "file.go:line" — basename only, so
// messages (and the golden files pinning them) stay machine-independent.
func shortPos(pkg *lint.Package, pos token.Pos) string {
	p := pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", modgraph.BaseName(p.Filename), p.Line)
}

// sccs computes strongly-connected components of the lock graph (Tarjan)
// in deterministic order.
func sccs(edges map[[2]*types.Var]*acqEdge, order [][2]*types.Var) [][]*types.Var {
	adj := make(map[*types.Var][]*types.Var)
	var nodes []*types.Var
	seen := make(map[*types.Var]bool)
	addNode := func(v *types.Var) {
		if !seen[v] {
			seen[v] = true
			nodes = append(nodes, v)
		}
	}
	for _, key := range order {
		addNode(key[0])
		addNode(key[1])
		adj[key[0]] = append(adj[key[0]], key[1])
	}

	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	var stack []*types.Var
	var comps [][]*types.Var
	next := 1

	var strong func(v *types.Var)
	strong = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, v := range nodes {
		if index[v] == 0 {
			strong(v)
		}
	}
	return comps
}
