package modown

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

// atomicfield enforces the all-or-nothing rule of sync/atomic: a struct
// field or package-level variable accessed through the function-style
// atomic API (atomic.AddInt64(&x.n, 1)) anywhere in the module must be
// accessed that way everywhere — one plain read racing one atomic write
// is still a data race, and on 32-bit targets a torn one. Both sites are
// reported: the plain access carries the position of an atomic access to
// the same location.
//
// Fields holding the typed atomics (atomic.Int64, atomic.Pointer[T]) are
// safe by construction and out of scope. Plain accesses on values the
// function itself just created (construction before publication) are
// exempt, mirroring the lockflow construction rule.
//
// The pass also checks alignment: a 64-bit function-style atomic field
// must sit at an 8-byte offset under 32-bit layout (GOARCH=386), or the
// first atomic op on it panics there. atomic.Int64 carries this guarantee
// itself; the finding suggests it.

// atomicUse is one sync/atomic call touching a tracked location.
type atomicUse struct {
	pos     token.Position
	fn      string
	width64 bool
}

// atomicField runs the module-wide consistency and alignment checks.
func atomicField(m *modgraph.Module) []lint.Finding {
	uses := make(map[types.Object][]atomicUse)
	strukt := make(map[types.Object]*types.Struct) // owning struct for fields
	skip := make(map[ast.Node]bool)                // operands inside atomic calls
	var order []types.Object

	for _, d := range m.Bodies() {
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := m.CalleeOf(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods on the typed atomics are safe by construction
			}
			obj, owner, opnd := atomicTarget(m, call)
			if obj == nil {
				return true
			}
			skip[opnd] = true
			if _, seen := uses[obj]; !seen {
				order = append(order, obj)
			}
			uses[obj] = append(uses[obj], atomicUse{
				pos:     d.Pkg.Fset.Position(call.Pos()),
				fn:      fn.Name(),
				width64: strings.Contains(fn.Name(), "64"),
			})
			if owner != nil {
				strukt[obj] = owner
			}
			return true
		})
	}
	if len(uses) == 0 {
		return nil
	}
	for _, sites := range uses {
		sort.Slice(sites, func(i, j int) bool {
			a, b := sites[i].pos, sites[j].pos
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			return a.Offset < b.Offset
		})
	}

	var out []lint.Finding

	// Pass 2: plain accesses to tracked locations.
	for _, d := range m.Bodies() {
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			if skip[n] {
				return false
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel, ok := m.Info.Selections[n]
				if !ok {
					return true
				}
				obj := sel.Obj()
				sites, tracked := uses[obj]
				if !tracked {
					return true
				}
				if modgraph.LocalTo(m, n.X, d.Decl) {
					return true // construction before publication
				}
				out = append(out, plainAccessFinding(d.Pkg, n.Pos(), obj, sites))
				return true
			case *ast.Ident:
				obj := m.Info.Uses[n]
				sites, tracked := uses[obj]
				if !tracked {
					return true
				}
				if v, ok := obj.(*types.Var); !ok || v.IsField() {
					return true // field idents are covered via their selector
				}
				out = append(out, plainAccessFinding(d.Pkg, n.Pos(), obj, sites))
			}
			return true
		})
	}

	// Alignment: 64-bit function-style atomic fields under 32-bit layout.
	sizes32 := types.SizesFor("gc", "386")
	for _, obj := range order {
		st := strukt[obj]
		if st == nil || sizes32 == nil {
			continue
		}
		any64 := false
		for _, u := range uses[obj] {
			any64 = any64 || u.width64
		}
		if !any64 {
			continue
		}
		fields := make([]*types.Var, st.NumFields())
		idx := -1
		for i := 0; i < st.NumFields(); i++ {
			fields[i] = st.Field(i)
			if fields[i] == obj {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		off := sizes32.Offsetsof(fields)[idx]
		if off%8 == 0 {
			continue
		}
		out = append(out, lint.Finding{
			Pos:  m.Position(obj.Pos()),
			Rule: "atomicfield",
			Msg: fmt.Sprintf("64-bit atomic field %s sits at offset %d under 32-bit layout and is not 8-byte aligned; move it to the front of the struct or use atomic.Int64, which guarantees alignment",
				obj.Name(), off),
		})
	}
	return out
}

// atomicTarget resolves the address argument of a function-style atomic
// call to the field or package-level variable it touches. It returns the
// object, the owning struct for fields, and the operand node to exempt
// from the plain-access pass.
func atomicTarget(m *modgraph.Module, call *ast.CallExpr) (types.Object, *types.Struct, ast.Node) {
	if len(call.Args) == 0 {
		return nil, nil, nil
	}
	un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil, nil, nil
	}
	switch opnd := ast.Unparen(un.X).(type) {
	case *ast.SelectorExpr:
		sel, ok := m.Info.Selections[opnd]
		if !ok {
			return nil, nil, nil
		}
		v, ok := sel.Obj().(*types.Var)
		if !ok || !v.IsField() {
			return nil, nil, nil
		}
		recv := sel.Recv()
		if ptr, ok := recv.Underlying().(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		owner, _ := recv.Underlying().(*types.Struct)
		return v, owner, opnd
	case *ast.Ident:
		v, ok := m.Info.Uses[opnd].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil || v.Parent().Parent() != types.Universe {
			return nil, nil, nil
		}
		return v, nil, opnd
	}
	return nil, nil, nil
}

func plainAccessFinding(p *lint.Package, pos token.Pos, obj types.Object, sites []atomicUse) lint.Finding {
	first := sites[0]
	return lint.Finding{
		Pos:  p.Fset.Position(pos),
		Rule: "atomicfield",
		Msg: fmt.Sprintf("%s is accessed plainly here but atomically at %s:%d (atomic.%s); every access to an atomic location must go through sync/atomic",
			obj.Name(), modgraph.BaseName(first.pos.Filename), first.pos.Line, first.fn),
	}
}
