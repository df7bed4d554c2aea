package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParseText reads a graph database from a simple line-oriented text
// format used by the command-line tools:
//
//	# comment
//	node  alice             // declares an isolated node (optional)
//	node  "my node"         // quoted names may contain spaces, '#', …
//	edge  alice knows bob   // edge alice -k-> bob; label = first rune
//	edge  "a b" " " carol   // quoted fields in edge lines, incl. labels
//	alice -knows-> bob      // arrow form, same meaning
//
// Tokens of node and edge lines may be Go-style double-quoted strings
// (strconv.Quote); WriteText quotes every name or label that the plain
// format cannot carry (spaces, quotes, control characters, a leading
// '#'). Labels longer than one rune use their first rune; single-rune
// labels are recommended (the data model is Σ-labeled with Σ a set of
// runes). Nodes are created on first mention.
func ParseText(r io.Reader) (*DB, error) {
	g := NewDB()
	if err := ParseTextInto(g, r); err != nil {
		return nil, err
	}
	return g, nil
}

// ParseTextInto streams the text format into an existing store — the
// form the durable tools use to import a file into an OpenDir store
// (typically inside DB.Bulk, so the load pays one checkpoint instead
// of a WAL record per line).
func ParseTextInto(g *DB, r io.Reader) error {
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if err := ApplyTextLine(g, sc.Text()); err != nil {
			return fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

// ApplyTextLine applies one line of the text format to g: a node or
// edge declaration mutates the store (advancing its epoch), blank
// lines and comments are no-ops. The replay mode of the command-line
// tools uses it to interleave mutations with snapshot queries.
func ApplyTextLine(g *DB, raw string) error {
	line := strings.TrimSpace(raw)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	switch {
	case strings.HasPrefix(line, "node "):
		rest := strings.TrimSpace(strings.TrimPrefix(line, "node "))
		if strings.HasPrefix(rest, `"`) {
			name, err := unquoteToken(rest)
			if err != nil {
				return fmt.Errorf("malformed node line %q: %w", line, err)
			}
			g.AddNode(name)
			return nil
		}
		// Unquoted remainder semantics (compatibility): the whole rest of
		// the line is the name, inner spaces included.
		g.AddNode(rest)
	case strings.HasPrefix(line, "edge "):
		fields, err := splitFields(strings.TrimPrefix(line, "edge "))
		if err != nil {
			return fmt.Errorf("malformed edge line %q: %w", line, err)
		}
		if len(fields) != 3 {
			return fmt.Errorf("want `edge FROM LABEL TO`, got %q", line)
		}
		if fields[1] == "" {
			return fmt.Errorf("empty label in edge line %q", line)
		}
		from := g.AddNode(fields[0])
		to := g.AddNode(fields[2])
		g.AddEdge(from, firstRune(fields[1]), to)
	case strings.Contains(line, "->"):
		// Arrow form: FROM -LABEL-> TO. The label sits between the last
		// " -" before the first "->" and that "->", so a FROM name
		// containing " -" (quoted or not) does not shift the split, and a
		// missing label (`a -> b`) is a parse error, not a panic.
		j := strings.Index(line, "->")
		i := strings.LastIndex(line[:j], " -")
		if i < 0 || i+2 > j {
			return fmt.Errorf("malformed arrow edge %q", line)
		}
		fromName := maybeUnquote(strings.TrimSpace(line[:i]))
		label := maybeUnquote(strings.TrimSpace(line[i+2 : j]))
		toName := maybeUnquote(strings.TrimSpace(line[j+2:]))
		if fromName == "" || label == "" || toName == "" {
			return fmt.Errorf("malformed arrow edge %q", line)
		}
		from := g.AddNode(fromName)
		to := g.AddNode(toName)
		g.AddEdge(from, firstRune(label), to)
	default:
		return fmt.Errorf("unrecognized line %q", line)
	}
	return nil
}

// splitFields splits s on whitespace into fields, where a field starting
// with '"' is a Go-quoted string extending to its closing quote.
func splitFields(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			return out, nil
		}
		if s[0] == '"' {
			q, err := strconv.QuotedPrefix(s)
			if err != nil {
				return nil, fmt.Errorf("unterminated quote")
			}
			u, err := strconv.Unquote(q)
			if err != nil {
				return nil, err
			}
			out = append(out, u)
			s = s[len(q):]
			if s != "" && s[0] != ' ' && s[0] != '\t' {
				return nil, fmt.Errorf("garbage after quoted field")
			}
			continue
		}
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			end = len(s)
		}
		out = append(out, s[:end])
		s = s[end:]
	}
}

// unquoteToken unquotes a token that must span the whole string.
func unquoteToken(s string) (string, error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil || q != s {
		return "", fmt.Errorf("bad quoted token %q", s)
	}
	return strconv.Unquote(q)
}

// maybeUnquote unquotes s if it is a complete Go-quoted string and
// returns it unchanged otherwise (arrow-form fields are optionally
// quoted).
func maybeUnquote(s string) string {
	if len(s) >= 2 && s[0] == '"' {
		if u, err := unquoteToken(s); err == nil {
			return u
		}
	}
	return s
}

func firstRune(s string) rune {
	for _, r := range s {
		return r
	}
	return 0
}

// needsQuoting reports whether a name or label cannot be written as a
// bare token of the text format: empty, leading '#' or '"', whitespace
// or control characters anywhere, or a backslash (which quoting would
// otherwise reinterpret on read).
func needsQuoting(s string) bool {
	if s == "" || s[0] == '#' || s[0] == '"' {
		return true
	}
	for _, r := range s {
		if r <= ' ' || r == '\\' || r == 0x7f {
			return true
		}
	}
	return false
}

// writeToken renders s as a field of the text format, quoting exactly
// when the bare form would not survive ParseText.
func writeToken(s string) string {
	if needsQuoting(s) {
		return strconv.Quote(s)
	}
	return s
}

// WriteText writes g in the text format read by ParseText: every node
// as a `node NAME` line in id order (so re-parsing assigns identical
// ids), then every edge sorted by source id, label and target id.
// Names and labels that the bare format cannot carry are quoted, so
// ParseText(WriteText(g)) reconstructs g exactly — same node ids, same
// names, same edge set.
func WriteText(w io.Writer, g *DB) error {
	for v := 0; v < g.NumNodes(); v++ {
		if _, err := fmt.Fprintf(w, "node %s\n", writeToken(g.Name(Node(v)))); err != nil {
			return err
		}
	}
	type edge struct {
		from, to Node
		label    rune
	}
	var edges []edge
	g.EachEdge(func(from Node, a rune, to Node) {
		edges = append(edges, edge{from, to, a})
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		if edges[i].label != edges[j].label {
			return edges[i].label < edges[j].label
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		_, err := fmt.Fprintf(w, "edge %s %s %s\n",
			writeToken(g.Name(e.from)), writeToken(string(e.label)), writeToken(g.Name(e.to)))
		if err != nil {
			return err
		}
	}
	return nil
}
