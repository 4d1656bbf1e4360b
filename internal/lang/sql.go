package lang

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/pivot"
)

// Schema maps logical relation names to their column names, used to
// compile column references into argument positions.
type Schema map[string][]string

// colPos resolves a column of a relation.
func (s Schema) colPos(rel, col string) (int, error) {
	cols, ok := s[rel]
	if !ok {
		return 0, fmt.Errorf("lang: unknown relation %q", rel)
	}
	for i, c := range cols {
		if strings.EqualFold(c, col) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("lang: relation %q has no column %q", rel, col)
}

// ErrConflictingConstants is returned when a query's equalities pin one
// column class to two different constants (u.id = '1' AND u.id = '2').
// Such a query has an empty answer; it is refused rather than silently
// answered for one of the two constants.
var ErrConflictingConstants = errors.New("lang: column equated to two different constants")

// scope resolves the column references of one SQL or FLWOR query and holds
// the union-find that its WHERE equalities build: each (alias, column)
// starts as its own variable "alias·column"; a column equality unites two
// classes and a literal equality pins a class to a constant.
type scope struct {
	schema  Schema
	noun    string            // what an alias is called in errors
	aliases map[string]string // alias → relation
	order   []string          // aliases in declaration order
	parent  map[pivot.Var]pivot.Var
	consts  map[pivot.Var]pivot.Const // keyed by class root
}

func newScope(schema Schema, noun string) *scope {
	return &scope{
		schema:  schema,
		noun:    noun,
		aliases: map[string]string{},
		parent:  map[pivot.Var]pivot.Var{},
		consts:  map[pivot.Var]pivot.Const{},
	}
}

// ref resolves alias.col to its variable, spelling the column as the
// schema does (columns match case-insensitively).
func (sc *scope) ref(alias, col string) (pivot.Var, error) {
	rel := sc.aliases[alias]
	if rel == "" {
		return "", fmt.Errorf("lang: unknown %s %q", sc.noun, alias)
	}
	i, err := sc.schema.colPos(rel, col)
	if err != nil {
		return "", err
	}
	return pivot.Var(alias + "·" + sc.schema[rel][i]), nil
}

func (sc *scope) find(v pivot.Var) pivot.Var {
	if p, ok := sc.parent[v]; ok && p != v {
		r := sc.find(p)
		sc.parent[v] = r
		return r
	}
	return v
}

// pin fixes v's class to the constant k.
func (sc *scope) pin(v pivot.Var, k pivot.Const) error {
	r := sc.find(v)
	if old, ok := sc.consts[r]; ok && !pivot.SameTerm(old, k) {
		return fmt.Errorf("%w: %s and %s", ErrConflictingConstants, old, k)
	}
	sc.consts[r] = k
	return nil
}

// union merges the classes of a and b; a constant pinned to either pins
// the merged class.
func (sc *scope) union(a, b pivot.Var) error {
	ra, rb := sc.find(a), sc.find(b)
	if ra == rb {
		return nil
	}
	if k, ok := sc.consts[ra]; ok {
		if err := sc.pin(rb, k); err != nil {
			return err
		}
		delete(sc.consts, ra)
	}
	sc.parent[ra] = rb
	return nil
}

// term is what a column stands for in the query: its class's constant, or
// else the class's representative variable.
func (sc *scope) term(v pivot.Var) pivot.Term {
	r := sc.find(v)
	if k, ok := sc.consts[r]; ok {
		return k
	}
	return r
}

// where parses the conjunction after WHERE: "a.c = literal" or
// "a.c = b.d", joined by AND.
func (sc *scope) where(p *parser) error {
	for {
		a1, c1, err := p.colRef()
		if err != nil {
			return err
		}
		if err := p.expectSymbol("="); err != nil {
			return err
		}
		v1, err := sc.ref(a1, c1)
		if err != nil {
			return err
		}
		if k, ok, err := p.literal(); err != nil {
			return err
		} else if ok {
			if err := sc.pin(v1, k); err != nil {
				return err
			}
		} else {
			a2, c2, err := p.colRef()
			if err != nil {
				return err
			}
			v2, err := sc.ref(a2, c2)
			if err != nil {
				return err
			}
			if err := sc.union(v1, v2); err != nil {
				return err
			}
		}
		if !p.keyword("and") {
			return nil
		}
	}
}

// body builds one atom per alias, in declaration order.
func (sc *scope) body() []pivot.Atom {
	var body []pivot.Atom
	for _, alias := range sc.order {
		rel := sc.aliases[alias]
		cols := sc.schema[rel]
		args := make([]pivot.Term, len(cols))
		for i, col := range cols {
			args[i] = sc.term(pivot.Var(alias + "·" + col))
		}
		body = append(body, pivot.Atom{Pred: rel, Args: args})
	}
	return body
}

// head resolves a projection list.
func (sc *scope) head(refs []colRef) ([]pivot.Term, error) {
	var args []pivot.Term
	for _, r := range refs {
		v, err := sc.ref(r.alias, r.col)
		if err != nil {
			return nil, err
		}
		args = append(args, sc.term(v))
	}
	return args, nil
}

type colRef struct{ alias, col string }

// colRef parses "alias.column".
func (p *parser) colRef() (alias, col string, err error) {
	if alias, err = p.ident(); err != nil {
		return "", "", err
	}
	if err = p.expectSymbol("."); err != nil {
		return "", "", err
	}
	if col, err = p.ident(); err != nil {
		return "", "", err
	}
	return alias, col, nil
}

// colRefs parses a comma-separated list of "alias.column".
func (p *parser) colRefs() ([]colRef, error) {
	var refs []colRef
	for {
		a, c, err := p.colRef()
		if err != nil {
			return nil, err
		}
		refs = append(refs, colRef{a, c})
		if !p.symbol(",") {
			return refs, nil
		}
	}
}

// ParseSQL compiles a mini-SQL query into a pivot conjunctive query:
//
//	SELECT a.name, b.pid
//	FROM Users a, Orders b
//	WHERE a.uid = b.uid AND a.city = 'paris'
//
// Supported: comma joins, equality predicates between columns and between a
// column and a literal, SELECT *. The result head is named "Q".
func ParseSQL(input string, schema Schema) (pivot.CQ, error) {
	toks, err := lex(input)
	if err != nil {
		return pivot.CQ{}, err
	}
	p := &parser{toks: toks}
	if err := p.expectKeyword("select"); err != nil {
		return pivot.CQ{}, err
	}

	var selects []colRef
	star := p.symbol("*")
	if !star {
		if selects, err = p.colRefs(); err != nil {
			return pivot.CQ{}, err
		}
	}

	if err := p.expectKeyword("from"); err != nil {
		return pivot.CQ{}, err
	}
	sc := newScope(schema, "alias")
	for {
		rel, err := p.ident()
		if err != nil {
			return pivot.CQ{}, err
		}
		alias := rel
		if t := p.peek(); t.kind == tokIdent && !isKeyword(t.text) {
			alias, _ = p.ident()
		}
		if _, dup := sc.aliases[alias]; dup {
			return pivot.CQ{}, fmt.Errorf("lang: duplicate alias %q", alias)
		}
		if _, ok := schema[rel]; !ok {
			return pivot.CQ{}, fmt.Errorf("lang: unknown relation %q", rel)
		}
		sc.aliases[alias] = rel
		sc.order = append(sc.order, alias)
		if !p.symbol(",") {
			break
		}
	}

	if p.keyword("where") {
		if err := sc.where(p); err != nil {
			return pivot.CQ{}, err
		}
	}
	if p.peek().kind != tokEOF {
		return pivot.CQ{}, fmt.Errorf("lang: trailing input at position %d (%q)", p.peek().pos, p.peek().text)
	}

	body := sc.body()
	var headArgs []pivot.Term
	if star {
		seen := map[string]bool{}
		for _, a := range body {
			for _, t := range a.Args {
				if v, ok := t.(pivot.Var); ok && !seen[string(v)] {
					seen[string(v)] = true
					headArgs = append(headArgs, v)
				}
			}
		}
	} else if headArgs, err = sc.head(selects); err != nil {
		return pivot.CQ{}, err
	}
	q := pivot.CQ{Head: pivot.NewAtom("Q", headArgs...), Body: body}
	if err := q.Validate(); err != nil {
		return pivot.CQ{}, err
	}
	return q, nil
}

func isKeyword(s string) bool {
	switch strings.ToLower(s) {
	case "select", "from", "where", "and", "for", "in", "return":
		return true
	}
	return false
}
