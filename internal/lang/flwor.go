package lang

import (
	"fmt"

	"repro/internal/pivot"
)

// ParseFLWOR compiles a mini FLWOR expression — the document-native surface
// syntax — into a pivot conjunctive query:
//
//	for c in Carts, p in Products
//	where c.pid = p.pid and c.uid = "u1"
//	return c.pid, p.category
//
// Bindings range over logical collections (relations in the schema);
// field references use the schema's column names, as a JSONiq query over
// ESTOCADA's virtual documents would.
func ParseFLWOR(input string, schema Schema) (pivot.CQ, error) {
	toks, err := lex(input)
	if err != nil {
		return pivot.CQ{}, err
	}
	p := &parser{toks: toks}
	if err := p.expectKeyword("for"); err != nil {
		return pivot.CQ{}, err
	}

	// Bindings: var in Collection {, var in Collection}
	sc := newScope(schema, "binding")
	for {
		a, err := p.ident()
		if err != nil {
			return pivot.CQ{}, err
		}
		if err := p.expectKeyword("in"); err != nil {
			return pivot.CQ{}, err
		}
		rel, err := p.ident()
		if err != nil {
			return pivot.CQ{}, err
		}
		if _, ok := schema[rel]; !ok {
			return pivot.CQ{}, fmt.Errorf("lang: unknown collection %q", rel)
		}
		if _, dup := sc.aliases[a]; dup {
			return pivot.CQ{}, fmt.Errorf("lang: duplicate binding %q", a)
		}
		sc.aliases[a] = rel
		sc.order = append(sc.order, a)
		if !p.symbol(",") {
			break
		}
	}

	if p.keyword("where") {
		if err := sc.where(p); err != nil {
			return pivot.CQ{}, err
		}
	}
	if err := p.expectKeyword("return"); err != nil {
		return pivot.CQ{}, err
	}
	returns, err := p.colRefs()
	if err != nil {
		return pivot.CQ{}, err
	}
	if p.peek().kind != tokEOF {
		return pivot.CQ{}, fmt.Errorf("lang: trailing input at position %d (%q)", p.peek().pos, p.peek().text)
	}

	headArgs, err := sc.head(returns)
	if err != nil {
		return pivot.CQ{}, err
	}
	q := pivot.CQ{Head: pivot.NewAtom("Q", headArgs...), Body: sc.body()}
	if err := q.Validate(); err != nil {
		return pivot.CQ{}, err
	}
	return q, nil
}
