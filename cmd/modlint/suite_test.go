package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"modchecker/internal/lint"
	"modchecker/internal/lint/moddet"
	"modchecker/internal/lint/modown"
	"modchecker/internal/lint/modsafe"
)

// fixtureModules are the whole-program analyzers' fixture corpora, keyed by
// module path (the name their imports resolve under).
var fixtureModules = map[string]string{
	"detmod":  "../../internal/lint/moddet/testdata/detmod",
	"safemod": "../../internal/lint/modsafe/testdata/safemod",
	"ownmod":  "../../internal/lint/modown/testdata/ownmod",
}

func loadFixtureModule(t *testing.T, dir string) []*lint.Package {
	t.Helper()
	pkgs, err := lint.LoadModule(token.NewFileSet(), dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkgs
}

// TestSuiteMatchesSeparateTools runs the combined all-pass suite — one
// type-check, one call graph, one directive walk — over each fixture
// module and requires exactly the sorted union of the three single-tool
// suites, each of which type-checks on its own. A pass that disturbs state
// a later pass reads shows up as a difference.
func TestSuiteMatchesSeparateTools(t *testing.T) {
	for path, dir := range fixtureModules {
		t.Run(path, func(t *testing.T) {
			pkgs := loadFixtureModule(t, dir)
			combined, _ := analyze(pkgs, nil, true, path, nil)
			separate := lint.RunAll(pkgs, nil, []lint.ModuleAnalyzer{moddet.New(path), modsafe.New(path), modown.New(path)})
			if len(combined) == 0 {
				t.Fatal("fixture module produced no findings")
			}
			if !slices.Equal(combined, separate) {
				t.Errorf("combined suite diverged from the separate tools:\n--- combined ---\n%s--- separate ---\n%s",
					render(combined), render(separate))
			}
		})
	}
}

// TestRunSelectionMatchesFullRun checks -run against the full run: for every
// whole-program rule, selecting just that rule reports exactly the full
// run's findings under it, though only the passes owning it execute. Every
// rule must fire in some fixture, so no comparison is vacuous everywhere.
func TestRunSelectionMatchesFullRun(t *testing.T) {
	fired := make(map[string]bool)
	for path, dir := range fixtureModules {
		pkgs := loadFixtureModule(t, dir)
		full, _ := analyze(pkgs, lint.Analyzers(), true, path, nil)
		for _, rule := range suite("").Rules() {
			got, _ := analyze(pkgs, lint.Analyzers(), true, path, map[string]bool{rule: true})
			want := slices.DeleteFunc(slices.Clone(full), func(f lint.Finding) bool { return f.Rule != rule })
			fired[rule] = fired[rule] || len(want) > 0
			if !slices.Equal(got, want) {
				t.Errorf("%s: -run %s diverged from the full run:\n--- selected ---\n%s--- full ---\n%s",
					path, rule, render(got), render(want))
			}
		}
	}
	for _, rule := range suite("").Rules() {
		if !fired[rule] {
			t.Errorf("no fixture module produced a %s finding", rule)
		}
	}
}

// TestDeselectedIgnoreStaysValid pins what the rule universe is for: a
// //modlint:ignore naming a rule whose pass does not run — deselected by
// -run, or whole-program under a package-directory load — is not an
// unknown rule, while a genuinely unknown one still is.
func TestDeselectedIgnoreStaysValid(t *testing.T) {
	const src = `package p

func f() int {
	//modlint:ignore lockorder harness nests these deliberately
	x := 1
	//modlint:ignore nosuchrule typo
	return x
}
`
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*lint.Package{{Name: "p", Dir: "p", Fset: fset, Files: []*lint.SourceFile{{Path: "p.go", AST: af}}}}
	for _, tc := range []struct {
		name        string
		wholeModule bool
		selected    map[string]bool
	}{
		{"run errprefix", true, map[string]bool{"errprefix": true}},
		{"run poolflow", true, map[string]bool{"poolflow": true}},
		{"package dir", false, nil},
	} {
		analyzers, s := selection(lint.Analyzers(), tc.wholeModule, "p", tc.selected)
		var unknown []string
		for _, f := range lint.RunAll(pkgs, analyzers, []lint.ModuleAnalyzer{s}) {
			if f.Rule == "ignore-directive" {
				unknown = append(unknown, f.Msg)
			}
		}
		want := []string{`ignore directive names unknown rule "nosuchrule"`}
		if !reflect.DeepEqual(unknown, want) {
			t.Errorf("%s: ignore-directive findings %q, want %q", tc.name, unknown, want)
		}
	}
}

// FuzzModlintSuite feeds arbitrary parseable Go through every
// whole-program pass over one shared substrate and checks the result
// against the three tools run on separate substrates: sharing types.Info,
// the call graph and the directive table must change nothing, and nothing
// may panic. Seeds are the three tools' fixture corpora.
func FuzzModlintSuite(f *testing.F) {
	for _, dir := range fixtureModules {
		_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			if src, err := os.ReadFile(path); err == nil {
				f.Add(string(src))
			}
			return nil
		})
	}
	f.Add("package p\n//moddet:sinkhole x\n//modsafe:charged\n//modown:pool k get\nfunc f() {}\n")

	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		af, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		pkgs := []*lint.Package{{Name: "fuzz", Dir: "fuzz", Fset: fset, Files: []*lint.SourceFile{{Path: "fuzz.go", AST: af}}}}
		combined := lint.RunAll(pkgs, nil, []lint.ModuleAnalyzer{suite("fuzzmod")})
		separate := lint.RunAll(pkgs, nil, []lint.ModuleAnalyzer{moddet.New("fuzzmod"), modsafe.New("fuzzmod"), modown.New("fuzzmod")})
		if !slices.Equal(combined, separate) {
			t.Errorf("combined suite diverged from the separate tools:\n--- combined ---\n%s--- separate ---\n%s",
				render(combined), render(separate))
		}
	})
}

func render(fs []lint.Finding) string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString(f.String() + "\n")
	}
	return sb.String()
}
