package ecrpq

import (
	"fmt"
	"strings"

	"repro/internal/regex"
	"repro/internal/relations"
)

// Env supplies the context needed to parse queries: the alphabet (for
// instantiating built-in relations) and optional named relations, which
// take precedence over the built-ins. Built-in relation names, resolved
// against Sigma: eq, el, prefix, lt, le, edit1, edit2, edit3; the length
// relations el, lt and le read Sigma as one class, so they cost the same
// at any |Sigma|. Anything else in relation-atom position is parsed as a
// regular expression defining a unary language atom.
type Env struct {
	Sigma     []rune
	Relations map[string]*relations.Relation
}

// Parse parses the textual query syntax:
//
//	Ans(x, y, p1) <- (x,p1,z), (z,p2,y), a+(p1), el(p1,p2)
//
// Head arguments are classified as node or path variables by their
// occurrence in the body. The body is a comma-separated list of path
// atoms (x,p,y) and relation atoms NAME(p1,...,pn); NAME is resolved via
// env (see Env), falling back to a regular expression over Sigma.
func Parse(src string, env Env) (*Query, error) {
	head, body, ok := strings.Cut(src, "<-")
	if !ok {
		return nil, fmt.Errorf("ecrpq: missing `<-` in %q", src)
	}
	head = strings.TrimSpace(head)
	if !strings.HasPrefix(head, "Ans(") || !strings.HasSuffix(head, ")") {
		return nil, fmt.Errorf("ecrpq: head must be Ans(...), got %q", head)
	}
	headArgs, err := splitTopLevel(head[len("Ans(") : len(head)-1])
	if err != nil {
		return nil, err
	}
	items, err := splitTopLevel(body)
	if err != nil {
		return nil, err
	}
	q := &Query{}
	pathVars := map[string]bool{}
	var relItems []string
	for _, item := range items {
		if item == "" {
			return nil, fmt.Errorf("ecrpq: empty atom in body of %q", src)
		}
		if name, args, ok := splitAtom(item); ok && name == "" && len(args) == 3 {
			q.PathAtoms = append(q.PathAtoms, PathAtom{
				X: NodeVar(args[0]), Pi: PathVar(args[1]), Y: NodeVar(args[2]),
			})
			pathVars[args[1]] = true
			continue
		}
		relItems = append(relItems, item)
	}
	for _, item := range relItems {
		name, args, ok := splitAtom(item)
		if !ok || len(args) == 0 {
			return nil, fmt.Errorf("ecrpq: malformed atom %q", item)
		}
		rel, err := resolveRelation(name, len(args), env)
		if err != nil {
			return nil, fmt.Errorf("ecrpq: atom %q: %w", item, err)
		}
		vars := make([]PathVar, len(args))
		for i, a := range args {
			vars[i] = PathVar(a)
		}
		q.RelAtoms = append(q.RelAtoms, RelAtom{Rel: rel, Args: vars})
	}
	for _, h := range headArgs {
		if h == "" {
			continue
		}
		if pathVars[h] {
			q.HeadPaths = append(q.HeadPaths, PathVar(h))
		} else {
			q.HeadNodes = append(q.HeadNodes, NodeVar(h))
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string, env Env) *Query {
	q, err := Parse(src, env)
	if err != nil {
		panic(err)
	}
	return q
}

func resolveRelation(name string, arity int, env Env) (*relations.Relation, error) {
	if r, ok := env.Relations[name]; ok {
		if r.Arity != arity {
			return nil, fmt.Errorf("relation %s has arity %d, used with %d arguments", name, r.Arity, arity)
		}
		return r, nil
	}
	if len(env.Sigma) > 0 {
		var r *relations.Relation
		switch name {
		case "eq":
			r = relations.Equality(env.Sigma)
		case "el":
			r = relations.EqualLength(env.Sigma)
		case "prefix":
			r = relations.Prefix(env.Sigma)
		case "lt":
			r = relations.ShorterLen(env.Sigma)
		case "le":
			r = relations.ShorterEqLen(env.Sigma)
		case "edit1":
			r = relations.EditDistance(env.Sigma, 1)
		case "edit2":
			r = relations.EditDistance(env.Sigma, 2)
		case "edit3":
			r = relations.EditDistance(env.Sigma, 3)
		}
		if r != nil {
			if r.Arity != arity {
				return nil, fmt.Errorf("built-in %s has arity %d, used with %d arguments", name, r.Arity, arity)
			}
			return r, nil
		}
	}
	if arity != 1 {
		return nil, fmt.Errorf("unknown relation %q with arity %d", name, arity)
	}
	node, err := regex.Parse(name)
	if err != nil {
		return nil, fmt.Errorf("%q is not a known relation or valid regular expression: %w", name, err)
	}
	return relations.FromLanguage(name, node), nil
}

// splitTopLevel splits s on commas at parenthesis depth 0, trimming
// whitespace from each part.
func splitTopLevel(s string) ([]string, error) {
	var out []string
	depth := 0
	cur := strings.Builder{}
	esc := false
	for _, r := range s {
		switch {
		case esc:
			cur.WriteRune(r)
			esc = false
		case r == '\\':
			cur.WriteRune(r)
			esc = true
		case r == '(' || r == '[' || r == '<':
			depth++
			cur.WriteRune(r)
		case r == ')' || r == ']' || r == '>':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("ecrpq: unbalanced parentheses in %q", s)
			}
			cur.WriteRune(r)
		case r == ',' && depth == 0:
			out = append(out, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("ecrpq: unbalanced parentheses in %q", s)
	}
	if t := strings.TrimSpace(cur.String()); t != "" || len(out) > 0 {
		out = append(out, t)
	}
	return out, nil
}

// splitAtom splits "PREFIX(a,b,c)" into PREFIX and the comma-separated
// arguments of the final parenthesized group. ok is false if s does not
// end with a balanced group.
func splitAtom(s string) (prefix string, args []string, ok bool) {
	if !strings.HasSuffix(s, ")") {
		return "", nil, false
	}
	depth := 0
	rs := []rune(s)
	open := -1
	for i := len(rs) - 1; i >= 0; i-- {
		switch rs[i] {
		case ')':
			depth++
		case '(':
			depth--
			if depth == 0 {
				open = i
			}
		}
		if open >= 0 {
			break
		}
	}
	if open < 0 {
		return "", nil, false
	}
	inner := string(rs[open+1 : len(rs)-1])
	parts, err := splitTopLevel(inner)
	if err != nil {
		return "", nil, false
	}
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
		if parts[i] == "" || strings.ContainsAny(parts[i], "()[]<>|*+?\\") {
			return "", nil, false
		}
	}
	return strings.TrimSpace(string(rs[:open])), parts, true
}
