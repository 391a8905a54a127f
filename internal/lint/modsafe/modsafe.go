// Package modsafe is modlint's whole-program soundness auditor — the
// sibling of moddet, run as a modgraph.Tool whose passes share one
// type-check, one call graph and one directive grammar with the other
// whole-program tools inside a modgraph.Suite. Where
// moddet protects the determinism guarantee, modsafe protects three
// liveness/accounting contracts that only hold (or break) across function
// boundaries:
//
//   - lockorder: the global lock-acquisition graph, built from explicit
//     Lock/RLock sites with held-lock sets propagated through calls, must be
//     acyclic — a cycle is an ABBA deadlock waiting for the right
//     interleaving, and a self-edge is a guaranteed self-deadlock.
//   - releasetrack: resources declared with //modsafe:acquires <kind> /
//     //modsafe:releases <kind> annotation pairs (sweep sessions, mapped
//     guest windows, paused domains, tracer spans) must be released on every
//     path out of the acquiring function, error returns and panics included.
//   - chargeflow: every function reachable from a //modsafe:charged entry
//     point that performs physical work (//modsafe:spends) must charge the
//     simulated clock (//modsafe:charges) on the way — unpaid guest reads
//     silently corrupt the slowdown model.
//
// Findings are suppressed like every modlint rule with
// //modlint:ignore <rule> <reason>; a directive on an acquisition site, an
// acquire call, or a charged root disables just that fact without leaking
// into the other analyzers. Malformed //modsafe: annotations are findings
// under the "modsafe" rule. See docs/static-analysis.md for the full model.
package modsafe

import (
	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// Tool is modsafe's directive grammar and passes.
var Tool = &modgraph.Tool{
	Name:  "modsafe",
	Doc:   "whole-program soundness audit: lock acquisition order must be acyclic; //modsafe:acquires resources must be released on every path; //modsafe:charged work must charge the simulated clock",
	Verbs: verbs,
	Passes: []modgraph.Pass{
		{Rules: []string{"lockorder"}, Graph: true, Run: func(p *modgraph.Program) []lint.Finding {
			return lockOrder(p.Graph, p.Sup)
		}},
		{Rules: []string{"releasetrack"}, Run: func(p *modgraph.Program) []lint.Finding {
			return releaseTrack(p.Module, annotationsOf(p), p.Sup)
		}},
		{Rules: []string{"chargeflow"}, Graph: true, Run: func(p *modgraph.Program) []lint.Finding {
			return chargeFlow(p.Graph, annotationsOf(p), p.Sup)
		}},
	},
}

// New returns the modsafe suite for a module with the given module path
// (the `module` line of its go.mod — see modgraph.ReadModulePath).
func New(modulePath string) *modgraph.Suite { return modgraph.NewSuite(modulePath, Tool) }
