package lang

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/pivot"
)

// LiteralKind is the type a literal converts to.
type LiteralKind uint8

// The literal kinds: a quoted string, a number without a '.', and a number
// with one.
const (
	LitString LiteralKind = iota + 1
	LitInt
	LitFloat
)

// Literal is one literal of a query text, converted exactly as the parsers
// convert it; only the field of its Kind is set.
type Literal struct {
	Kind  LiteralKind
	Str   string
	Int   int64
	Float float64
}

// literalOf converts a string or number token.
func literalOf(t token) (Literal, error) {
	switch {
	case t.kind == tokString:
		return Literal{Kind: LitString, Str: t.text}, nil
	case strings.IndexByte(t.text, '.') >= 0:
		f, err := strconv.ParseFloat(t.text, 64)
		return Literal{Kind: LitFloat, Float: f}, err
	default:
		i, err := strconv.ParseInt(t.text, 10, 64)
		return Literal{Kind: LitInt, Int: i}, err
	}
}

// Const is the pivot constant the parsers put where the literal stands.
func (l Literal) Const() pivot.Const {
	switch l.Kind {
	case LitString:
		return pivot.CStr(l.Str)
	case LitInt:
		return pivot.CInt(l.Int)
	default:
		return pivot.CFloat(l.Float)
	}
}

// Equal reports whether two literals become the same constant (equal
// pivot.Const keys): same kind and same value, floats compared bit for bit
// so that 0.0 and -0.0 stay apart.
func (l Literal) Equal(m Literal) bool {
	if l.Kind != m.Kind {
		return false
	}
	switch l.Kind {
	case LitString:
		return l.Str == m.Str
	case LitInt:
		return l.Int == m.Int
	default:
		return math.Float64bits(l.Float) == math.Float64bits(m.Float)
	}
}

// Shape scans text once, appending its token shape to shape and its
// literals, in text order, to lits. The shape lists every token with each
// literal masked by its kind, so two texts have the same shape exactly when
// they differ only in whitespace, quote characters and literal values; a
// parser's result then differs only where those literals land. Each token
// is its text followed by 0x00, a literal is 0x01 followed by 's', 'i' or
// 'f'; identifier and symbol bytes are never control bytes, so the
// encoding is unambiguous.
//
// Shape allocates nothing while shape and lits have room. It declines
// (ok = false) when the text does not lex or a number does not convert (an
// int that overflows int64, a malformed float), which the parsers reject;
// a caller that wants their error parses the text.
func Shape(text string, shape []byte, lits []Literal) ([]byte, []Literal, bool) {
	s := scanner{in: text}
	for {
		t, err := s.next()
		if err != nil {
			return shape, lits, false
		}
		switch t.kind {
		case tokEOF:
			return shape, lits, true
		case tokString, tokNumber:
			lit, err := literalOf(t)
			if err != nil {
				return shape, lits, false
			}
			lits = append(lits, lit)
			shape = append(shape, 0x01, "?sif"[lit.Kind])
		default:
			shape = append(shape, t.text...)
			shape = append(shape, 0x00)
		}
	}
}
