// Command modlint runs the project's static-analysis suite (internal/lint)
// over the module: rules the Go compiler cannot enforce but the simulation
// depends on — simulated-clock discipline, mutex conventions, guest-memory
// aliasing, error prefixes, goroutine hygiene, and the whole-program
// audits: moddet (determinism), modsafe (soundness), and modown
// (ownership). See docs/static-analysis.md.
//
// Usage:
//
//	modlint [-list] [-json] [-sarif file] [-run rule,...] [packages]
//
// Accepts "./..." (the whole module, the default) or individual package
// directories. Prints one "file:line: [rule] message" line per finding —
// or, with -json, a machine-readable array of
// {file, line, col, analyzer, message, severity} objects (the shape the CI
// problem matcher and artifact consumers read) — and exits 1 when anything
// is found, 2 on usage or load errors. -sarif additionally writes a SARIF
// 2.1.0 log to the given file (regardless of findings), the format GitHub
// code scanning ingests.
//
// -run restricts the run to an exact comma-separated list of rule names
// (as printed by -list): only the analyzers and whole-program passes owning
// a named rule execute, and only findings under the named rules are
// reported. A name that matches no rule is a usage error — a typo must not
// silently pass CI.
//
// The moddet/modsafe/modown passes run as one suite over a single
// type-check and call graph of the module. They need to see every package
// at once, so they run only when the whole module is loaded (the "./..."
// default); explicit package-directory runs get the per-package rules
// alone. Whole-program analysis degrades gracefully on type-check
// failures: affected packages drop out of the interprocedural passes, the
// substrate errors go to stderr, and a run with errors but no findings
// exits 2 rather than reporting a clean bill it cannot back.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"modchecker/internal/lint"
	"modchecker/internal/lint/moddet"
	"modchecker/internal/lint/modgraph"
	"modchecker/internal/lint/modown"
	"modchecker/internal/lint/modsafe"
)

// suite is the whole-program suite: every moddet, modsafe and modown pass
// over one shared type-check, call graph and directive walk. The module
// path may be "" for rule listing.
func suite(modulePath string) *modgraph.Suite {
	return modgraph.NewSuite(modulePath, moddet.Tool, modsafe.Tool, modown.Tool)
}

func main() {
	list := flag.Bool("list", false, "list the rules and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text lines")
	sarifOut := flag.String("sarif", "", "also write a SARIF 2.1.0 log to this `file`")
	runFilter := flag.String("run", "", "run only these exact `rule,...` names (see -list); an unknown name is an error")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: modlint [-list] [-json] [-sarif file] [-run rule,...] [./... | package dirs]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name(), a.Doc())
		}
		for _, t := range suite("").Tools() {
			for _, r := range t.Rules() {
				fmt.Printf("%-18s %s\n", r, t.Name+": "+t.Doc)
			}
		}
		return
	}

	selected, err := parseRunFilter(*runFilter, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "modlint:", err)
		os.Exit(2)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "modlint:", err)
		os.Exit(2)
	}

	pkgs, wholeModule, err := load(root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "modlint:", err)
		os.Exit(2)
	}

	findings, errs := analyze(pkgs, analyzers, wholeModule, moddet.ReadModulePath(root), selected)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "modlint: substrate:", e)
	}
	relativize(root, findings)
	if *sarifOut != "" {
		if err := writeSARIFFile(*sarifOut, findings); err != nil {
			fmt.Fprintln(os.Stderr, "modlint:", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "modlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "modlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	if len(errs) > 0 {
		// No findings, but parts of the module never got analyzed: that is
		// not a clean bill.
		os.Exit(2)
	}
}

// parseRunFilter validates a -run spec against the full rule universe
// (per-package analyzer names plus every whole-program rule) and returns
// the selected set, or nil when no filter was given. An unknown or empty
// name is an error: a typo in CI must fail loudly, not run nothing.
func parseRunFilter(spec string, analyzers []lint.Analyzer) (map[string]bool, error) {
	if spec == "" {
		return nil, nil
	}
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	for _, r := range suite("").Rules() {
		known[r] = true
	}
	selected := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-run: empty rule name in %q", spec)
		}
		if !known[name] {
			all := make([]string, 0, len(known))
			for r := range known {
				all = append(all, r)
			}
			sort.Strings(all)
			return nil, fmt.Errorf("-run: unknown rule %q (known rules: %s)", name, strings.Join(all, ", "))
		}
		selected[name] = true
	}
	return selected, nil
}

// selection returns what a run executes: the per-package analyzers and the
// whole-program suite, which runs its passes only over a whole-module load.
// A non-nil selected (the -run set) keeps only the analyzers and suite
// passes owning a selected rule. The suite reports every rule name even
// when it runs none of its passes, so //modlint:ignore directives naming a
// deselected or whole-program rule stay valid.
func selection(analyzers []lint.Analyzer, wholeModule bool, modulePath string, selected map[string]bool) ([]lint.Analyzer, lint.ModuleAnalyzer) {
	s := suite(modulePath)
	switch {
	case !wholeModule:
		s = s.Only(map[string]bool{})
	case selected != nil:
		s = s.Only(selected)
	}
	if selected != nil {
		analyzers = slices.DeleteFunc(slices.Clone(analyzers), func(a lint.Analyzer) bool { return !selected[a.Name()] })
	}
	return analyzers, s
}

// analyze runs the selection over pkgs and, under -run, keeps only the
// findings under the selected rules.
func analyze(pkgs []*lint.Package, analyzers []lint.Analyzer, wholeModule bool, modulePath string, selected map[string]bool) ([]lint.Finding, []error) {
	analyzers, s := selection(analyzers, wholeModule, modulePath, selected)
	findings, errs := lint.RunAllErrs(pkgs, analyzers, []lint.ModuleAnalyzer{s})
	if selected != nil {
		findings = slices.DeleteFunc(findings, func(f lint.Finding) bool { return !selected[f.Rule] })
	}
	return findings, errs
}

// relativize rewrites finding paths to be module-root-relative, the form CI
// problem matchers and diff annotations want.
func relativize(root string, findings []lint.Finding) {
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// jsonFinding is the -json output shape; field order is the contract.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Severity string `json:"severity"`
}

// writeJSON renders findings as an indented JSON array ("[]" when clean).
func writeJSON(w *os.File, findings []lint.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Rule,
			Message:  f.Msg,
			Severity: "error",
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// load resolves package patterns. "./..." (or no arguments) loads the whole
// module; any other argument is a package directory, with a trailing
// "/..." loading it recursively. The second result reports whether the
// whole module was loaded (the precondition for the moddet passes).
func load(root string, patterns []string) ([]*lint.Package, bool, error) {
	fset := token.NewFileSet()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wholeModule := false
	var pkgs []*lint.Package
	seen := make(map[string]bool)
	add := func(ps []*lint.Package) {
		for _, p := range ps {
			if !seen[p.Dir] {
				seen[p.Dir] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			ps, err := lint.LoadModule(fset, root)
			if err != nil {
				return nil, false, err
			}
			wholeModule = true
			add(ps)
		case strings.HasSuffix(pat, "/..."):
			dir, err := resolveDir(root, strings.TrimSuffix(pat, "/..."))
			if err != nil {
				return nil, false, err
			}
			ps, err := lint.LoadModule(fset, dir)
			if err != nil {
				return nil, false, err
			}
			// LoadModule computed RelDir against dir; recompute against root.
			for _, p := range ps {
				rel, err := filepath.Rel(root, p.Dir)
				if err != nil {
					return nil, false, err
				}
				if rel == "." {
					rel = ""
				}
				p.RelDir = filepath.ToSlash(rel)
			}
			add(ps)
		default:
			dir, err := resolveDir(root, pat)
			if err != nil {
				return nil, false, err
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return nil, false, err
			}
			if rel == "." {
				rel = ""
			}
			p, err := lint.LoadPackage(fset, dir, rel)
			if err != nil {
				return nil, false, err
			}
			if p == nil {
				return nil, false, fmt.Errorf("no Go files in %s", dir)
			}
			add([]*lint.Package{p})
		}
	}
	return pkgs, wholeModule, nil
}

func resolveDir(root, pat string) (string, error) {
	dir := pat
	if !filepath.IsAbs(dir) {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = filepath.Join(wd, pat)
	}
	info, err := os.Stat(dir)
	if err != nil || !info.IsDir() {
		return "", fmt.Errorf("not a package directory: %s", pat)
	}
	if rel, err := filepath.Rel(root, dir); err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside the module", pat)
	}
	return dir, nil
}
