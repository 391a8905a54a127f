package modsafe

import (
	"go/types"

	"modchecker/internal/lint/modgraph"
)

// modsafe annotations live in function doc comments and declare the three
// contracts the analyzers check:
//
//	//modsafe:acquires <kind> [reason]
//	//modsafe:releases <kind> [reason]
//	    releasetrack: calling an acquires function creates an obligation of
//	    <kind> on the result (or the receiver for resultless methods) that
//	    every path must discharge via a matching releases call.
//
//	//modsafe:charged <reason>
//	    chargeflow: this function is an entry point whose transitive work
//	    must be charged to the simulated clock.
//
//	//modsafe:charges <reason>
//	    chargeflow: calling this function charges the clock; a caller that
//	    invokes it is considered paid for, subtree included.
//
//	//modsafe:spends <reason>
//	    chargeflow: this function performs physical work (guest reads, page
//	    walks, TLB fills) without charging; reaching it from a charged root
//	    through uncharging functions is a finding.
//
// The grammar is modgraph's: malformed directives — unknown verbs, a
// missing kind, or a directive on a declaration the type-checker could not
// resolve — are findings under the "modsafe" rule rather than silently
// ignored annotations.

// kindVerb is the shape of acquires and releases: one resource kind.
var kindVerb = modgraph.Verb{
	Args:    []modgraph.Arg{{Name: "kind", Kind: true}},
	Needs:   "a resource kind",
	Example: "sweep-session",
}

// verbs is the //modsafe: grammar.
var verbs = map[string]modgraph.Verb{
	"acquires": kindVerb, "releases": kindVerb,
	"charged": {}, "charges": {}, "spends": {},
}

// annotations indexes every directive in the module by verb.
type annotations struct {
	// acquires/releases map each annotated function to its directive, whose
	// Kind is the resource kind.
	acquires map[*types.Func]*modgraph.Directive
	releases map[*types.Func]*modgraph.Directive
	charged  []*modgraph.Directive // deterministic (load) order
	charges  map[*types.Func]bool
	spends   map[*types.Func]bool
}

// annotationsOf indexes the program's //modsafe: directives.
func annotationsOf(p *modgraph.Program) *annotations {
	ann := &annotations{
		acquires: make(map[*types.Func]*modgraph.Directive),
		releases: make(map[*types.Func]*modgraph.Directive),
		charges:  make(map[*types.Func]bool),
		spends:   make(map[*types.Func]bool),
	}
	for _, d := range p.Directives("modsafe") {
		switch d.Verb {
		case "acquires":
			ann.acquires[d.Obj] = d
		case "releases":
			ann.releases[d.Obj] = d
		case "charged":
			ann.charged = append(ann.charged, d)
		case "charges":
			ann.charges[d.Obj] = true
		case "spends":
			ann.spends[d.Obj] = true
		}
	}
	return ann
}
