package modgraph

import (
	"go/token"
	"regexp"
	"slices"
	"strings"

	"modchecker/internal/lint"
)

// A directive annotates a function in its doc comment:
//
//	//<tool>:<verb> args... [reason]
//
// Each tool supplies its verbs as a table of Verb entries; the suite parses
// the directives of every tool it runs in one walk over the module's
// declarations. A malformed directive is a finding under the tool's own
// rule, reported at the comment: an empty or unknown verb, a missing
// argument, a kind that is not lowercase kebab-case, a value outside an
// argument's allowed set, a directive on a declaration the type-checker
// could not resolve, and a body-requiring verb on a bodyless declaration.

// Verb is one entry of a tool's directive grammar.
type Verb struct {
	// Args are the positional arguments after the verb; any further text
	// is the free-form reason.
	Args []Arg
	// Needs and Example render the missing-argument message:
	// "//<tool>:<verb> needs <Needs> (e.g. //<tool>:<verb> <Example>)".
	Needs, Example string
	// Body rejects the directive on a declaration without a body.
	Body bool
}

// Arg is one positional directive argument.
type Arg struct {
	// Name labels the argument in error messages ("kind", "role").
	Name string
	// Kind marks a resource kind: lowercase kebab-case, so typos like a
	// stray colon or a capitalized kind don't silently create a new
	// resource class. Its value is the directive's Kind.
	Kind bool
	// OneOf, when non-empty, lists the allowed values.
	OneOf []string
}

// Directive is one well-formed directive bound to its resolved declaration.
type Directive struct {
	*FuncDecl // Obj is never nil
	Verb      string
	// Args are the positional arguments, one per Verb.Args entry.
	Args []string
	// Kind is the value of the verb's Kind argument ("" when it has none).
	Kind string
	// Pos is the directive comment's position.
	Pos token.Pos
}

var kindRE = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)

// collectDirectives parses the directives of the given tools from every
// declaration's doc comment, indexing the well-formed ones by tool and
// returning the malformed ones as findings.
func (p *Program) collectDirectives(tools []*Tool) []lint.Finding {
	byName := make(map[string]*Tool, len(tools))
	for _, t := range tools {
		byName[t.Name] = t
	}
	p.dirs = make(map[string][]*Directive, len(tools))
	var bad []lint.Finding
	for _, d := range p.Decls {
		if d.Decl.Doc == nil {
			continue
		}
		for _, c := range d.Decl.Doc.List {
			name, rest, ok := strings.Cut(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), ":")
			t := byName[name]
			if !ok || t == nil {
				continue
			}
			dir, msg := t.parse(rest)
			if msg == "" && d.Obj == nil {
				msg = "//" + t.Name + ":" + dir.Verb + " directive on a declaration the type-checker could not resolve"
			} else if msg == "" && d.Decl.Body == nil && t.Verbs[dir.Verb].Body {
				msg = "//" + t.Name + ":" + dir.Verb + " directive on a bodyless declaration has nothing to audit"
			}
			if msg != "" {
				bad = append(bad, lint.Finding{Pos: d.Pkg.Fset.Position(c.Pos()), Rule: t.Name, Msg: msg})
				continue
			}
			dir.FuncDecl, dir.Pos = d, c.Pos()
			p.dirs[t.Name] = append(p.dirs[t.Name], dir)
		}
	}
	return bad
}

// parse splits the text after "<tool>:" into a directive, or an error
// message for the finding.
func (t *Tool) parse(rest string) (*Directive, string) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, "empty //" + t.Name + ": directive"
	}
	verb := fields[0]
	head := "//" + t.Name + ":" + verb
	v, ok := t.Verbs[verb]
	if !ok {
		return nil, "unknown //" + t.Name + ": directive " + quote(verb)
	}
	if len(fields)-1 < len(v.Args) {
		return nil, head + " needs " + v.Needs + " (e.g. " + head + " " + v.Example + ")"
	}
	dir := &Directive{Verb: verb, Args: fields[1 : 1+len(v.Args)]}
	for i, a := range v.Args {
		val := dir.Args[i]
		switch {
		case a.Kind && !kindRE.MatchString(val):
			return nil, head + " " + a.Name + " " + quote(val) + " must be lowercase kebab-case"
		case len(a.OneOf) > 0 && !slices.Contains(a.OneOf, val):
			allowed := make([]string, len(a.OneOf))
			for j, o := range a.OneOf {
				allowed[j] = quote(o)
			}
			return nil, head + " " + a.Name + " " + quote(val) + " must be " + strings.Join(allowed, " or ")
		case a.Kind:
			dir.Kind = val
		}
	}
	return dir, ""
}

// quote wraps a token for an error message.
func quote(s string) string { return `"` + s + `"` }
