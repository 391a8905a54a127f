package moddet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// The maporder pass flags map-range loops whose iteration order escapes
// into an order-sensitive destination: a slice that is never sorted
// afterwards in the same function, an io.Writer / string builder / hash, a
// formatted print, or a channel. Go randomizes map iteration order per run,
// so any such escape breaks the byte-identical-exports guarantee the
// moment it reaches a report, trace, digest, or metric.
//
// Recognized-benign shapes produce no finding:
//
//   - folding into another map (m2[k] = v), deleting, counting, summing —
//     commutative accumulation is order-independent;
//   - appending to a slice that a sort.* / slices.Sort* call canonicalizes
//     later in the same function (the collect-then-sort idiom);
//   - ranges that bind neither key nor value (every iteration identical);
//   - appends/writes whose destination is itself declared inside the loop
//     body (fresh per iteration, so order cannot leak through it).
//
// What it cannot see: a slice returned unsorted and sorted by the caller,
// or order smuggled through a helper call. Those sites need either the
// sort moved in, or a //modlint:ignore maporder directive with a reason.

// mapSite is one flagged map-range escape. Sites double as taint roots for
// the sink analysis: a sink that can reach one transitively is reported too.
type mapSite struct {
	pos token.Pos
	pkg *lint.Package
	fn  *types.Func // enclosing declaration, nil if unresolved
	msg string
}

// mapOrder scans every function body in the module.
func mapOrder(m *modgraph.Module) []*mapSite {
	var sites []*mapSite
	for _, d := range m.Bodies() {
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				sites = append(sites, checkMapRange(m, d.Pkg, d.Obj, d.Decl, rs)...)
			}
			return true
		})
	}
	return sites
}

// checkMapRange analyzes one range statement (no-op for non-map ranges).
func checkMapRange(m *modgraph.Module, p *lint.Package, fn *types.Func, fd *ast.FuncDecl, rs *ast.RangeStmt) []*mapSite {
	t := m.TypeOf(rs.X)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return nil
	}
	if !bindsLoopVar(rs) {
		return nil // every iteration is identical; order cannot show
	}

	var sites []*mapSite
	flag := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, &mapSite{
			pos: pos, pkg: p, fn: fn,
			msg: fmt.Sprintf(format, args...),
		})
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(m, call) {
					continue
				}
				target := n.Lhs[i]
				if n.Tok == token.DEFINE || declaredWithin(m, target, rs) {
					continue // fresh per iteration
				}
				key := exprKey(target)
				if key == "" {
					continue
				}
				if sortedAfter(m, fd, rs, key) {
					continue
				}
				flag(rs.Pos(), "map iteration order escapes into slice %q with no subsequent sort in %s; sort the keys first or sort %q before it escapes", key, fd.Name.Name, key)
			}
		case *ast.CallExpr:
			if what, pos, ok := writerEscape(m, n, rs); ok {
				flag(pos, "map iteration order escapes into %s in %s; iterate over sorted keys instead", what, fd.Name.Name)
				return false
			}
		case *ast.SendStmt:
			flag(n.Pos(), "map iteration order escapes into a channel send in %s; iterate over sorted keys instead", fd.Name.Name)
		}
		return true
	})
	return sites
}

// bindsLoopVar reports whether the range binds its key or value to a
// usable name.
func bindsLoopVar(rs *ast.RangeStmt) bool {
	used := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		id, ok := e.(*ast.Ident)
		return !ok || id.Name != "_"
	}
	return used(rs.Key) || used(rs.Value)
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(m *modgraph.Module, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if obj := m.ObjOf(id); obj != nil {
		_, isBuiltin := obj.(*types.Builtin)
		return isBuiltin
	}
	return true // unresolved: assume the builtin
}

// declaredWithin reports whether e's base identifier is declared inside the
// range statement (a per-iteration local).
func declaredWithin(m *modgraph.Module, e ast.Expr, rs *ast.RangeStmt) bool {
	id := modgraph.BaseIdent(e)
	if id == nil {
		return false
	}
	obj := m.ObjOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
}

// fmtPrintFuncs are the fmt functions that render straight to a stream.
var fmtPrintFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// writeMethods are the stream-writer method names that make an escape.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// writerEscape reports whether call pushes loop-dependent data into a
// stream: an fmt print, io.WriteString, or a Write* method on anything not
// freshly created inside the loop.
func writerEscape(m *modgraph.Module, call *ast.CallExpr, rs *ast.RangeStmt) (string, token.Pos, bool) {
	fn := m.CalleeOf(call)
	if fn == nil {
		return "", 0, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if pkg := fn.Pkg(); pkg != nil && (sig == nil || sig.Recv() == nil) {
		switch {
		case pkg.Path() == "fmt" && fmtPrintFuncs[fn.Name()]:
			return "a stream via fmt." + fn.Name(), call.Pos(), true
		case pkg.Path() == "io" && fn.Name() == "WriteString":
			return "a writer via io.WriteString", call.Pos(), true
		}
		return "", 0, false
	}
	if !writeMethods[fn.Name()] {
		return "", 0, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	if declaredWithin(m, sel.X, rs) {
		return "", 0, false // per-iteration buffer; order cannot leak
	}
	return fmt.Sprintf("a writer/digest via %s.%s", exprKey(sel.X), fn.Name()), call.Pos(), true
}

// sortFuncs maps package path to the canonicalizing functions whose first
// argument is (or wraps) the slice being sorted.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether the function sorts the named slice at some
// point after the range statement.
func sortedAfter(m *modgraph.Module, fd *ast.FuncDecl, rs *ast.RangeStmt, key string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		fn := m.CalleeOf(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		names, ok := sortFuncs[fn.Pkg().Path()]
		if !ok || !names[fn.Name()] {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		// Unwrap one conversion/wrapper layer: sort.Sort(byName(s)).
		if c, ok := arg.(*ast.CallExpr); ok && len(c.Args) == 1 {
			arg = ast.Unparen(c.Args[0])
		}
		if exprKey(arg) == key {
			found = true
			return false
		}
		return true
	})
	return found
}

// exprKey renders a restricted expression (idents, selectors, parens,
// unary &/*, constant indexes) to a canonical string for structural
// comparison; "" outside that subset.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		x := exprKey(e.X)
		if x == "" {
			return ""
		}
		return x + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(e.X)
		}
	case *ast.IndexExpr:
		x := exprKey(e.X)
		if x == "" {
			return ""
		}
		if lit, ok := e.Index.(*ast.BasicLit); ok {
			return x + "[" + lit.Value + "]"
		}
	}
	return ""
}
