package lang

import (
	"fmt"

	"repro/internal/pivot"
)

// ParseCQ parses a conjunctive query in the pivot model's own datalog-ish
// notation, the third surface language next to mini-SQL and mini-FLWOR:
//
//	Q(uid, name) :- Users(uid, name, city), Orders(oid, uid, pid, amount)
//	Q(uid) :- Prefs(uid, 'theme', val)
//
// Lower-case-insensitive identifiers are variables or predicate names by
// position; arguments may also be string ('...' or "..."), integer, or
// float literals. No schema is needed: predicates address the logical
// relations directly, with positional arguments.
func ParseCQ(input string) (pivot.CQ, error) {
	toks, err := lex(input)
	if err != nil {
		return pivot.CQ{}, err
	}
	p := &parser{toks: toks}
	head, err := p.cqAtom()
	if err != nil {
		return pivot.CQ{}, err
	}
	if err := p.expectSymbol(":-"); err != nil {
		return pivot.CQ{}, err
	}
	var body []pivot.Atom
	for {
		a, err := p.cqAtom()
		if err != nil {
			return pivot.CQ{}, err
		}
		body = append(body, a)
		if !p.symbol(",") {
			break
		}
	}
	if p.peek().kind != tokEOF {
		return pivot.CQ{}, fmt.Errorf("lang: trailing input at position %d (%q)", p.peek().pos, p.peek().text)
	}
	q := pivot.CQ{Head: head, Body: body}
	if err := q.Validate(); err != nil {
		return pivot.CQ{}, err
	}
	return q, nil
}

// cqAtom parses Pred(term, …).
func (p *parser) cqAtom() (pivot.Atom, error) {
	pred, err := p.ident()
	if err != nil {
		return pivot.Atom{}, err
	}
	if err := p.expectSymbol("("); err != nil {
		return pivot.Atom{}, err
	}
	var args []pivot.Term
	if !p.symbol(")") {
		for {
			t, err := p.cqTerm()
			if err != nil {
				return pivot.Atom{}, err
			}
			args = append(args, t)
			if p.symbol(")") {
				break
			}
			if err := p.expectSymbol(","); err != nil {
				return pivot.Atom{}, err
			}
		}
	}
	return pivot.NewAtom(pred, args...), nil
}

// cqTerm parses one argument: a literal constant or a variable name.
func (p *parser) cqTerm() (pivot.Term, error) {
	if k, ok, err := p.literal(); err != nil {
		return nil, err
	} else if ok {
		return k, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, fmt.Errorf("lang: expected variable or literal at position %d (%q)", p.peek().pos, p.peek().text)
	}
	return pivot.Var(name), nil
}
