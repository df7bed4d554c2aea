package regex

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Parse parses a regular expression over single-rune symbols.
//
// Grammar (standard precedence: star > concat > alternation):
//
//	expr   := branch ('|' branch)*
//	branch := factor*
//	factor := atom ('*' | '+' | '?')*
//	atom   := '(' expr ')' | '[' '^'? item* ']' | '.' | sym
//	item   := sym ('-' sym)?     (a class member or inclusive range)
//	sym    := '_'                (the padding symbol ⊥)
//	        | '\' any-rune       (escaped literal)
//	        | any rune except ()[]|*+?\<>,.
//
// "()" denotes ε and "[]" denotes ∅. "[abc]" is the class a|b|c.
// "[a-f]" matches the inclusive rune range, "[^x]" matches every label
// except x, and "." matches every label; ⊥ is never matched by ranges,
// negations or the wildcard. A '-' first or last in a class is the
// literal dash. Plain classes like "[abc]" stay explicit alternations;
// ranges, negations and "." produce class nodes, which engage the
// label-class compilation of package ecrpq (see regex.Partition).
func Parse(src string) (*Node[rune], error) {
	p := &parser{src: src}
	n, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errorf("unexpected %q", p.peek())
	}
	return n, nil
}

// MustParse is Parse that panics on error; for tests and fixed expressions.
func MustParse(src string) *Node[rune] {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

type parser struct {
	src string
	pos int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() rune {
	r, _ := utf8.DecodeRuneInString(p.src[p.pos:])
	return r
}

func (p *parser) next() rune {
	r, n := utf8.DecodeRuneInString(p.src[p.pos:])
	p.pos += n
	return r
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("regex: parse error at offset %d of %q: %s", p.pos, p.src, fmt.Sprintf(format, args...))
}

const meta = `()[]|*+?\<>,.`

func (p *parser) parseExpr() (*Node[rune], error) {
	n, err := p.parseBranch()
	if err != nil {
		return nil, err
	}
	for !p.eof() && p.peek() == '|' {
		p.next()
		m, err := p.parseBranch()
		if err != nil {
			return nil, err
		}
		n = Or(n, m)
	}
	return n, nil
}

func (p *parser) parseBranch() (*Node[rune], error) {
	res := Eps[rune]()
	for !p.eof() {
		switch p.peek() {
		case '|', ')':
			return res, nil
		}
		f, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		res = Seq(res, f)
	}
	return res, nil
}

func (p *parser) parseFactor() (*Node[rune], error) {
	n, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for !p.eof() {
		switch p.peek() {
		case '*':
			p.next()
			n = Kleene(n)
		case '+':
			p.next()
			n = Repeat(n)
		case '?':
			p.next()
			n = Opt(n)
		default:
			return n, nil
		}
	}
	return n, nil
}

func (p *parser) parseAtom() (*Node[rune], error) {
	if p.eof() {
		return nil, p.errorf("unexpected end of expression")
	}
	switch r := p.peek(); r {
	case '(':
		p.next()
		if !p.eof() && p.peek() == ')' { // "()" is ε
			p.next()
			return Eps[rune](), nil
		}
		n, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.peek() != ')' {
			return nil, p.errorf("missing ')'")
		}
		p.next()
		return n, nil
	case '[':
		p.next()
		return p.parseClass()
	case '.':
		p.next()
		return ClassNode(wildcard()), nil
	case ')', ']', '|', '*', '+', '?', ',', '<', '>':
		return nil, p.errorf("unexpected %q", r)
	default:
		s, err := p.parseSym()
		if err != nil {
			return nil, err
		}
		return Lit(s), nil
	}
}

// parseClass parses the body of a bracket class (the '[' is consumed):
// an optional leading '^' negates, and 'a-b' between two symbols is the
// inclusive range. Plain symbol lists stay an explicit alternation
// (AnyOf); ranges and negations produce a ClassExpr node.
func (p *parser) parseClass() (*Node[rune], error) {
	negate := false
	if !p.eof() && p.peek() == '^' {
		p.next()
		negate = true
	}
	var syms []rune
	var ranges []Range
	for !p.eof() && p.peek() != ']' {
		s, err := p.parseSym()
		if err != nil {
			return nil, err
		}
		if !p.eof() && p.peek() == '-' {
			p.next()
			if p.eof() {
				return nil, p.errorf("missing ']'")
			}
			if p.peek() == ']' {
				// Trailing '-' is the literal dash.
				syms = append(syms, s, '-')
				continue
			}
			hi, err := p.parseSym()
			if err != nil {
				return nil, err
			}
			if s == Bot || hi == Bot {
				return nil, p.errorf("range endpoints cannot be ⊥")
			}
			if hi < s {
				return nil, p.errorf("inverted range %q-%q", s, hi)
			}
			ranges = append(ranges, Range{s, hi})
			continue
		}
		syms = append(syms, s)
	}
	if p.eof() {
		return nil, p.errorf("missing ']'")
	}
	p.next()
	if !negate && len(ranges) == 0 {
		return AnyOf(syms...), nil
	}
	for _, s := range syms {
		if s == Bot {
			return nil, p.errorf("⊥ cannot appear in a range or negated class")
		}
		ranges = append(ranges, Range{s, s})
	}
	return ClassNode(NewClass(negate, ranges...)), nil
}

func (p *parser) parseSym() (rune, error) {
	r := p.next()
	switch r {
	case '\\':
		if p.eof() {
			return 0, p.errorf("dangling escape")
		}
		return p.next(), nil
	case '_':
		return Bot, nil
	default:
		if strings.ContainsRune(meta, r) {
			return 0, p.errorf("unexpected metacharacter %q", r)
		}
		return r, nil
	}
}
