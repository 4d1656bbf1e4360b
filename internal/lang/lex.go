// Package lang provides the native surface languages through which
// applications talk to ESTOCADA (paper §III: "each dataset is accessed
// through a language specific to its native data model"). Two parsers are
// provided, both compiling to pivot-model conjunctive queries:
//
//   - a mini SQL (SELECT–FROM–WHERE with equi-joins and literal
//     selections) for relational datasets, and
//   - a mini FLWOR ("for x in C where … return …") for document datasets.
//
// Compilation needs the logical schema (relation → column names) to map
// column references to argument positions.
package lang

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/pivot"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokSymbol // . , = ( )
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// scanner yields the tokens of one input without allocating: a token's
// text is a substring of the input (string literals have no escapes, so
// their text is exactly the bytes between the quotes). It is the one
// scanning loop; lex and Shape are its two consumers.
type scanner struct {
	in  string
	pos int
}

// next returns the next token, tokEOF at the end of the input. Keywords
// stay plain identifiers; the parsers match them case-insensitively.
func (s *scanner) next() (token, error) {
	for s.pos < len(s.in) {
		start := s.pos
		c := s.in[start]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			s.pos++
		case c == '\'' || c == '"':
			n := strings.IndexByte(s.in[start+1:], c)
			if n < 0 {
				return token{}, fmt.Errorf("lang: unterminated string starting at %d", start)
			}
			s.pos = start + n + 2
			return token{tokString, s.in[start+1 : start+1+n], start}, nil
		case c == '.' || c == ',' || c == '=' || c == '(' || c == ')' || c == '*':
			s.pos++
			return token{tokSymbol, s.in[start:s.pos], start}, nil
		case c == ':':
			// ":-" is the datalog rule arrow of the CQ surface syntax.
			if start+1 < len(s.in) && s.in[start+1] == '-' {
				s.pos += 2
				return token{tokSymbol, ":-", start}, nil
			}
			return token{}, fmt.Errorf("lang: unexpected character %q at %d", c, start)
		case c == '-' || c >= '0' && c <= '9':
			s.pos++
			for s.pos < len(s.in) && (s.in[s.pos] >= '0' && s.in[s.pos] <= '9' || s.in[s.pos] == '.') {
				s.pos++
			}
			return token{tokNumber, s.in[start:s.pos], start}, nil
		case isIdentStart(rune(c)):
			// The first byte is consumed unconditionally: '$' may start an
			// identifier but not continue one.
			s.pos++
			for s.pos < len(s.in) && isIdentRest(rune(s.in[s.pos])) {
				s.pos++
			}
			return token{tokIdent, s.in[start:s.pos], start}, nil
		default:
			return token{}, fmt.Errorf("lang: unexpected character %q at %d", c, start)
		}
	}
	return token{tokEOF, "", s.pos}, nil
}

// lex splits the input into tokens, ending with tokEOF.
func lex(in string) ([]token, error) {
	s := scanner{in: in}
	var toks []token
	for {
		t, err := s.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '$'
}

func isIdentRest(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

// parser is a simple cursor over tokens shared by both grammars.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

// keyword consumes an identifier matching kw case-insensitively.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("lang: expected %q at position %d (got %q)", kw, p.peek().pos, p.peek().text)
	}
	return nil
}

func (p *parser) symbol(s string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.symbol(s) {
		return fmt.Errorf("lang: expected %q at position %d (got %q)", s, p.peek().pos, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("lang: expected identifier at position %d (got %q)", t.pos, t.text)
	}
	p.next()
	return t.text, nil
}

// literal parses a string or number literal into a constant.
func (p *parser) literal() (pivot.Const, bool, error) {
	t := p.peek()
	if t.kind != tokString && t.kind != tokNumber {
		return pivot.Const{}, false, nil
	}
	p.next()
	lit, err := literalOf(t)
	if err != nil {
		return pivot.Const{}, true, err
	}
	return lit.Const(), true, nil
}
