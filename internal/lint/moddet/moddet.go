// Package moddet is modlint's whole-program determinism auditor. The
// reproduction's headline guarantee — byte-identical sweeps, traces and
// reports from one seed — is a *global* property: a time.Now three calls
// below a report writer breaks it just as surely as one inside. The
// per-package rules in internal/lint cannot see across call boundaries, so
// moddet is a modgraph.Tool: its passes run inside a modgraph.Suite over
// the substrate every whole-program tool shares — one type-check of the
// module, one conservative call graph, one directive grammar — and check
// three things:
//
//   - moddet: impurity taint seeded at nondeterminism roots — host-clock
//     reads outside hosttime.go, package-level math/rand, os.Getenv and
//     friends, multi-way selects, and unsorted map-order escapes — must not
//     be reachable from any function annotated //moddet:sink (the trace and
//     metrics exporters, the report writers, the pipeline digest/cluster
//     stages, the scanner sweep loop).
//   - maporder: map-range iteration order must not escape into slices,
//     writers, digests or channels without an intervening sort (reported at
//     the site whether or not a sink reaches it).
//   - lockflow: "// guarded by <mu>" field annotations hold across function
//     boundaries — a lock-free accessor is fine only while every call chain
//     into it acquires the mutex first.
//
// Findings are suppressed like every modlint rule, with
// //modlint:ignore <rule> <reason>; suppressing a maporder site also stops
// it from seeding taint, so an annotated site never resurfaces through the
// sink report. A malformed //moddet: directive — a misspelled verb, or a
// sink on a bodyless or unresolved declaration — is a finding under the
// "moddet" rule. See docs/static-analysis.md for the full model.
package moddet

import (
	"go/types"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// Tool is moddet's directive grammar and passes. The taint pass owns both
// moddet and maporder: unsuppressed maporder sites seed its taint.
var Tool = &modgraph.Tool{
	Name: "moddet",
	Doc:  "whole-program determinism audit: nondeterminism roots must not reach //moddet:sink functions; map order must not escape unsorted; // guarded by holds across calls",
	Verbs: map[string]modgraph.Verb{
		"sink": {Body: true},
	},
	Passes: []modgraph.Pass{
		{Rules: []string{"moddet", "maporder"}, Graph: true, Run: taintPass},
		{Rules: []string{"lockflow"}, Graph: true, Run: func(p *modgraph.Program) []lint.Finding {
			guards, out := collectGuards(p.Module)
			return append(out, lockFlow(p.Graph, guards)...)
		}},
	},
}

// New returns the moddet suite for a module with the given module path
// (the `module` line of its go.mod — see ReadModulePath).
func New(modulePath string) *modgraph.Suite { return modgraph.NewSuite(modulePath, Tool) }

// ReadModulePath extracts the module path from root/go.mod ("" when absent
// or unparsable); it forwards to the shared substrate.
func ReadModulePath(root string) string { return modgraph.ReadModulePath(root) }

// taintPass reports every maporder site, then seeds taint from the
// unsuppressed ones (a deliberately annotated site must not resurface via
// a sink) and from the direct nondeterminism roots.
func taintPass(p *modgraph.Program) []lint.Finding {
	var out []lint.Finding
	mapRoots := make(map[*types.Func][]root)
	for _, s := range mapOrder(p.Module) {
		pos := s.pkg.Fset.Position(s.pos)
		out = append(out, lint.Finding{Pos: pos, Rule: "maporder", Msg: s.msg})
		if p.Sup.Suppressed(pos.Filename, pos.Line, "maporder") || s.fn == nil {
			continue
		}
		mapRoots[s.fn] = append(mapRoots[s.fn], root{pos: s.pos, desc: "map iteration order escape"})
	}
	return append(out, taintFindings(p.Graph, p.Directives("moddet"), collectRoots(p.Graph), mapRoots)...)
}
