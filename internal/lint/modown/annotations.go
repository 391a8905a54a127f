package modown

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// modown annotations live in function doc comments and declare the
// ownership contracts the analyzers check:
//
//	//modown:pool <kind> get [reason]
//	//modown:pool <kind> put [reason]
//	    poolflow: a get accessor hands out a pooled value of <kind>; the
//	    caller owns it until a matching put accessor recycles it, a
//	    //modown:transfer callee takes it over, or it is returned from a
//	    function that is itself annotated get for the kind. Inside an
//	    annotated accessor the raw sync.Pool traffic is the implementation
//	    of the contract and is not tracked.
//
//	//modown:transfer <kind> [reason]
//	    poolflow: calling this function moves ownership of any pooled
//	    <kind> argument into the callee (it stores the value in a struct it
//	    owns and recycles it later); the caller's obligation is discharged.
//
//	//modown:borrowed [reason]
//	    aliasfree: this function returns a zero-copy view of memory owned
//	    elsewhere (a CopyMapped window, a CoW frame layer). Callers must
//	    not mutate, append to, or recycle the result, and may only return
//	    it from functions that carry the same annotation.
//
// The grammar is modgraph's: malformed directives — unknown verbs, a
// missing kind or role, or a directive on a declaration the type-checker
// could not resolve — are findings under the "modown" rule. So, from the
// pairing pass, is a pool kind with a get accessor but no put (or the
// reverse): a one-sided pool is a contract nothing can satisfy.

// verbs is the //modown: grammar.
var verbs = map[string]modgraph.Verb{
	"pool": {
		Args:    []modgraph.Arg{{Name: "kind", Kind: true}, {Name: "role", OneOf: []string{"get", "put"}}},
		Needs:   "a kind and a role",
		Example: "fetch-buf get",
	},
	"transfer": {
		Args:    []modgraph.Arg{{Name: "kind", Kind: true}},
		Needs:   "a pool kind",
		Example: "fetch-buf",
	},
	"borrowed": {},
}

// annotations indexes every directive in the module. The maps extend each
// contract to module-declared interface methods whose implementations
// carry it, so calls through an interface (s.h.MapRange) resolve the same
// as direct calls.
type annotations struct {
	poolGet  map[*types.Func]*modgraph.Directive
	poolPut  map[*types.Func]*modgraph.Directive
	transfer map[*types.Func]*modgraph.Directive
	borrowed map[*types.Func]*modgraph.Directive
	// annotated marks declarations carrying any pool directive; their
	// bodies implement the contract and are exempt from intrinsic
	// sync.Pool tracking.
	annotated map[*ast.FuncDecl]bool
}

// annotationsOf indexes the program's //modown: directives and extends
// them to the interface methods they implement.
func annotationsOf(p *modgraph.Program) *annotations {
	ann := &annotations{
		poolGet:   make(map[*types.Func]*modgraph.Directive),
		poolPut:   make(map[*types.Func]*modgraph.Directive),
		transfer:  make(map[*types.Func]*modgraph.Directive),
		borrowed:  make(map[*types.Func]*modgraph.Directive),
		annotated: make(map[*ast.FuncDecl]bool),
	}
	for _, d := range p.Directives("modown") {
		switch {
		case d.Verb == "pool" && d.Args[1] == "get":
			ann.poolGet[d.Obj] = d
			ann.annotated[d.Decl] = true
		case d.Verb == "pool":
			ann.poolPut[d.Obj] = d
			ann.annotated[d.Decl] = true
		case d.Verb == "transfer":
			ann.transfer[d.Obj] = d
		case d.Verb == "borrowed":
			ann.borrowed[d.Obj] = d
		}
	}
	extendToInterfaces(p.Module, ann)
	return ann
}

// pairingCheck flags pool kinds declared with only one side of the
// get/put pair, and transfer kinds that name no declared pool.
func pairingCheck(dirs []*modgraph.Directive) []lint.Finding {
	gets := make(map[string]bool)
	puts := make(map[string]bool)
	for _, d := range dirs {
		if d.Verb == "pool" && d.Args[1] == "get" {
			gets[d.Kind] = true
		} else if d.Verb == "pool" {
			puts[d.Kind] = true
		}
	}
	var bad []lint.Finding
	flag := func(d *modgraph.Directive, msg string) {
		bad = append(bad, lint.Finding{Pos: d.Pkg.Fset.Position(d.Pos), Rule: "modown", Msg: msg})
	}
	for _, d := range dirs {
		switch {
		case d.Verb == "pool" && d.Args[1] == "get" && !puts[d.Kind]:
			flag(d, "pool kind "+strconv.Quote(d.Kind)+" has a get accessor but no //modown:pool "+d.Kind+" put")
		case d.Verb == "pool" && d.Args[1] == "put" && !gets[d.Kind]:
			flag(d, "pool kind "+strconv.Quote(d.Kind)+" has a put accessor but no //modown:pool "+d.Kind+" get")
		case d.Verb == "transfer" && !gets[d.Kind]:
			flag(d, "//modown:transfer names pool kind "+strconv.Quote(d.Kind)+", which has no get accessor")
		}
	}
	return bad
}

// extendToInterfaces maps each annotated concrete method's contract onto
// module-declared interface methods it implements, so dynamic dispatch
// sites resolve annotations the same way direct calls do.
func extendToInterfaces(m *modgraph.Module, ann *annotations) {
	type ifaceMethod struct {
		iface *types.Interface
		fn    *types.Func
	}
	var methods []ifaceMethod
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
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				methods = append(methods, ifaceMethod{iface, iface.Method(i)})
			}
		}
	}
	extend := func(dst map[*types.Func]*modgraph.Directive) {
		var fns []*types.Func
		for fn := range dst {
			fns = append(fns, fn)
		}
		sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
		for _, fn := range fns {
			d := dst[fn]
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil || sig.Recv() == nil {
				continue
			}
			recv := sig.Recv().Type()
			for _, im := range methods {
				if im.fn.Name() != fn.Name() {
					continue
				}
				if !types.Implements(recv, im.iface) && !types.Implements(types.NewPointer(recv), im.iface) {
					continue
				}
				if _, taken := dst[im.fn]; !taken {
					dst[im.fn] = d
				}
			}
		}
	}
	extend(ann.poolGet)
	extend(ann.poolPut)
	extend(ann.transfer)
	extend(ann.borrowed)
}
