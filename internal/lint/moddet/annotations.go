package moddet

import (
	"go/ast"
	"go/types"
	"regexp"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// guardRE matches the field annotation "// guarded by <mutexField>" in a
// struct field's trailing or doc comment.
var guardRE = regexp.MustCompile(`\bguarded by ([A-Za-z_][A-Za-z0-9_]*)\b`)

// guardedField is one struct field annotated "// guarded by <mu>": every
// access anywhere in the module must happen with <mu> held, either locally
// or in every caller (checked interprocedurally by lockflow).
type guardedField struct {
	structName string // the declaring struct type's name
	pkg        *lint.Package
	field      *types.Var // the guarded field's object
	mutexName  string
	mutex      *types.Var // the guarding mutex field's object
}

// collectGuards scans struct declarations for guarded-by annotations and
// resolves both sides to their field objects. An annotation naming a field
// that does not exist in the same struct is itself a finding.
func collectGuards(m *modgraph.Module) ([]*guardedField, []lint.Finding) {
	var guards []*guardedField
	var bad []lint.Finding
	m.EachFile(func(p *lint.Package, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			// Index the struct's named fields for mutex resolution.
			fieldVar := make(map[string]*types.Var)
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if v, ok := m.Info.Defs[name].(*types.Var); ok {
						fieldVar[name.Name] = v
					}
				}
			}
			for _, f := range st.Fields.List {
				mu, ok := guardAnnotation(f)
				if !ok {
					continue
				}
				mutex := fieldVar[mu]
				if mutex == nil {
					bad = append(bad, lint.Finding{
						Pos:  p.Fset.Position(f.Pos()),
						Rule: "lockflow",
						Msg:  "// guarded by " + mu + " names no field of struct " + ts.Name.Name,
					})
					continue
				}
				for _, name := range f.Names {
					v, ok := m.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					guards = append(guards, &guardedField{
						structName: ts.Name.Name,
						pkg:        p,
						field:      v,
						mutexName:  mu,
						mutex:      mutex,
					})
				}
			}
			return true
		})
	})
	return guards, bad
}

// guardAnnotation extracts the mutex name from a field's comments.
func guardAnnotation(f *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardRE.FindStringSubmatch(c.Text); m != nil {
				return m[1], true
			}
		}
	}
	return "", false
}
