package modgraph

import (
	"slices"

	"modchecker/internal/lint"
)

// Tool is one whole-program analyzer — moddet, modsafe, modown — described
// as data: its directive grammar and its passes over the shared Program.
type Tool struct {
	// Name is the directive prefix (//<Name>:<verb>) and the rule that
	// malformed directives are reported under.
	Name string
	// Doc is the one-line description for -list output.
	Doc   string
	Verbs map[string]Verb
	// Passes run in order; each owns the rules it reports under.
	Passes []Pass
}

// Pass is one analysis over the shared substrate.
type Pass struct {
	// Rules are the rule names the pass reports under.
	Rules []string
	// Graph asks the suite to build the call graph before the pass runs.
	Graph bool
	Run   func(p *Program) []lint.Finding
}

// Rules lists every rule the tool reports under: each pass's rules in
// order, then the tool's directive rule unless a pass already owns it.
func (t *Tool) Rules() []string {
	var out []string
	for _, ps := range t.Passes {
		out = append(out, ps.Rules...)
	}
	if !slices.Contains(out, t.Name) {
		out = append(out, t.Name)
	}
	return out
}

// Program is the substrate one suite run shares across all of its passes:
// the module type-checked once, its call graph built at most once, the
// run's suppression set, and every tool's directives parsed once.
type Program struct {
	*Module
	// Graph is nil unless a running pass asked for it.
	Graph *Graph
	Sup   lint.SuppressionSet
	dirs  map[string][]*Directive
}

// Directives returns the tool's well-formed directives in load order.
func (p *Program) Directives(tool string) []*Directive { return p.dirs[tool] }

// Suite runs the passes of one or more tools over one Program. It is the
// lint.ModuleAnalyzer of every whole-program tool: moddet.New, modsafe.New
// and modown.New each return a one-tool suite, and cmd/modlint runs one
// suite holding all three.
type Suite struct {
	modulePath string
	tools      []*Tool
	only       map[string]bool // nil runs every pass
}

// NewSuite returns a suite for a module with the given module path (the
// `module` line of its go.mod — see ReadModulePath). Import paths under it
// resolve to the loaded package set; everything else is external.
func NewSuite(modulePath string, tools ...*Tool) *Suite {
	return &Suite{modulePath: modulePath, tools: tools}
}

// Only returns a copy of the suite that runs just the passes owning a rule
// in rules. A pass still reports every rule it owns and malformed
// directives are reported whenever anything runs, so callers filter the
// findings by rule. Rules still lists every rule, so //modlint:ignore
// directives naming a deselected rule stay valid; an empty set runs
// nothing at all.
func (s *Suite) Only(rules map[string]bool) *Suite {
	c := *s
	c.only = rules
	return &c
}

// Tools returns the suite's tools in run order.
func (s *Suite) Tools() []*Tool { return s.tools }

// Rules lists every rule of every tool, selected or not.
func (s *Suite) Rules() []string {
	var out []string
	for _, t := range s.tools {
		out = append(out, t.Rules()...)
	}
	return out
}

func (s *Suite) keep(rule string) bool { return s.only == nil || s.only[rule] }

// CheckModule type-checks the package set once, parses every tool's
// directives, builds the call graph if a selected pass needs it, and runs
// the selected passes. It degrades gracefully on partial type information:
// whatever could not be resolved is simply not analyzed, and the soft
// type-check errors come back beside the findings.
func (s *Suite) CheckModule(pkgs []*lint.Package, sup lint.SuppressionSet) ([]lint.Finding, []error) {
	var passes []Pass
	run, graph := false, false
	for _, t := range s.tools {
		run = run || s.keep(t.Name)
		for _, ps := range t.Passes {
			if slices.ContainsFunc(ps.Rules, s.keep) {
				passes = append(passes, ps)
				run, graph = true, graph || ps.Graph
			}
		}
	}
	if len(pkgs) == 0 || !run {
		return nil, nil
	}
	p := &Program{Module: TypeCheck(s.modulePath, pkgs), Sup: sup}
	out := p.collectDirectives(s.tools)
	if graph {
		p.Graph = Build(p.Module)
	}
	for _, ps := range passes {
		out = append(out, ps.Run(p)...)
	}
	return out, p.Errs
}
