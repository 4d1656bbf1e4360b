// Package langfuzz generates random conjunctive queries over the
// marketplace schema, rendered equivalently in all three surface
// languages (mini-SQL, mini-FLWOR, CQ), plus mutation-based malformed
// inputs. The differential tests drive the three parsers and the
// executor's materialized/chunked/row-at-a-time paths against each
// other: a valid triple must produce identical result multisets on
// every surface and path, and a malformed input must fail with a typed
// error — never a panic, never a silently-empty result.
package langfuzz

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/scenario"
)

// Triple is one generated query rendered in the three surfaces. All
// three parse to alpha-equivalent pivot queries.
type Triple struct {
	SQL   string
	FLWOR string
	CQ    string
}

// Generator produces random query triples and syntactic mutations,
// deterministically from its seed.
type Generator struct {
	rng  *rand.Rand
	rels []string // schema relation names, sorted for determinism
}

// NewGenerator returns a seeded generator over the marketplace schema.
func NewGenerator(seed int64) *Generator {
	var rels []string
	for r := range scenario.LogicalSchema {
		rels = append(rels, r)
	}
	// map iteration order is random; sort for seed-determinism.
	for i := 1; i < len(rels); i++ {
		for j := i; j > 0 && rels[j] < rels[j-1]; j-- {
			rels[j], rels[j-1] = rels[j-1], rels[j]
		}
	}
	return &Generator{rng: rand.New(rand.NewSource(seed)), rels: rels}
}

// colRef names one column of one atom occurrence.
type colRef struct{ alias, col string }

// literal is a surface-agnostic constant; strings are quoted per
// surface at render time.
type literal struct {
	text  string
	isStr bool
}

// model is the abstract query the three renderers share: atoms with
// aliases, join equalities, constant filters, and a projection.
type model struct {
	aliases    []string          // in declaration order
	relOf      map[string]string // alias -> relation
	equalities [][2]colRef
	filters    []struct {
		ref colRef
		lit literal
	}
	projection []colRef

	// union-find over column references, mirroring the parsers'.
	parent map[colRef]colRef
	consts map[colRef]literal // keyed by class root
}

func (m *model) find(c colRef) colRef {
	if p, ok := m.parent[c]; ok && p != c {
		r := m.find(p)
		m.parent[c] = r
		return r
	}
	return c
}

func (m *model) union(a, b colRef) {
	ra, rb := m.find(a), m.find(b)
	if ra != rb {
		m.parent[ra] = rb
	}
}

// pinned reports the constant of c's class, if any filter pinned it.
func (m *model) pinned(c colRef) (literal, bool) {
	root := m.find(c)
	for v, lit := range m.consts {
		if m.find(v) == root {
			return lit, true
		}
	}
	return literal{}, false
}

// Triple generates one random query and renders it in the three
// surfaces.
func (g *Generator) Triple() Triple {
	m := g.buildModel()
	return Triple{SQL: renderSQL(m), FLWOR: renderFLWOR(m), CQ: renderCQ(m)}
}

// Template generates one random query like Triple, with the literal of
// every constant filter replaced by the placeholder "§i§" (i numbers the
// filters from 0) for the caller to fill. The CQ rendering repeats a
// placeholder wherever its column class appears, the head included.
func (g *Generator) Template() Triple {
	m := g.buildModel()
	for i := range m.filters {
		lit := literal{text: fmt.Sprintf("§%d§", i)}
		m.filters[i].lit = lit
		m.consts[m.find(m.filters[i].ref)] = lit
	}
	return Triple{SQL: renderSQL(m), FLWOR: renderFLWOR(m), CQ: renderCQ(m)}
}

// buildModel draws a random conjunctive query: 1-3 atoms, consecutive
// atoms joined on a shared column (keeping results join-bounded),
// optional constant filters, and a 1-3 column projection.
func (g *Generator) buildModel() *model {
	m := &model{
		relOf:  map[string]string{},
		parent: map[colRef]colRef{},
		consts: map[colRef]literal{},
	}
	addAtom := func(rel string) string {
		alias := fmt.Sprintf("a%d", len(m.aliases))
		m.aliases = append(m.aliases, alias)
		m.relOf[alias] = rel
		return alias
	}
	first := g.rels[g.rng.Intn(len(g.rels))]
	addAtom(first)

	nAtoms := 1 + g.rng.Intn(3)
	for len(m.aliases) < nAtoms {
		rel := g.rels[g.rng.Intn(len(g.rels))]
		// Join the new atom to a random earlier one on a shared column;
		// without one (Users ⋈ Products share nothing) resample.
		prev := m.aliases[g.rng.Intn(len(m.aliases))]
		shared := sharedColumns(m.relOf[prev], rel)
		if len(shared) == 0 {
			continue
		}
		alias := addAtom(rel)
		col := shared[g.rng.Intn(len(shared))]
		eq := [2]colRef{{prev, col}, {alias, col}}
		m.equalities = append(m.equalities, eq)
		m.union(eq[0], eq[1])
	}

	// Constant filters: usually one, sometimes two, over the domain pools
	// so results are non-empty often enough to be interesting.
	nFilters := 0
	switch r := g.rng.Float64(); {
	case r < 0.15:
		nFilters = 0
	case r < 0.8:
		nFilters = 1
	default:
		nFilters = 2
	}
	for i := 0; i < nFilters; i++ {
		alias := m.aliases[g.rng.Intn(len(m.aliases))]
		cols := scenario.LogicalSchema[m.relOf[alias]]
		col := cols[g.rng.Intn(len(cols))]
		ref := colRef{alias, col}
		if _, already := m.pinned(ref); already {
			continue
		}
		m.filters = append(m.filters, struct {
			ref colRef
			lit literal
		}{ref, g.literalFor(col)})
		m.consts[m.find(ref)] = m.filters[len(m.filters)-1].lit
	}

	nProj := 1 + g.rng.Intn(3)
	for i := 0; i < nProj; i++ {
		alias := m.aliases[g.rng.Intn(len(m.aliases))]
		cols := scenario.LogicalSchema[m.relOf[alias]]
		m.projection = append(m.projection, colRef{alias, cols[g.rng.Intn(len(cols))]})
	}
	return m
}

// sharedColumns lists column names present in both relations.
func sharedColumns(a, b string) []string {
	var out []string
	for _, ca := range scenario.LogicalSchema[a] {
		for _, cb := range scenario.LogicalSchema[b] {
			if ca == cb {
				out = append(out, ca)
			}
		}
	}
	return out
}

var (
	fuzzCities     = []string{"paris", "lyon", "lille", "nice", "nantes", "grenoble"}
	fuzzCategories = []string{"audio", "video", "books", "games", "garden", "kitchen", "sports", "toys"}
	fuzzPrefKeys   = []string{"theme", "lang", "currency"}
	fuzzPrefVals   = []string{"dark", "light", "auto", "fr", "en", "de", "es", "eur", "usd", "gbp"}
)

// literalFor draws a plausible constant for a column, from the datagen
// value domains (so filters frequently match real rows).
func (g *Generator) literalFor(col string) literal {
	switch col {
	case "uid":
		return literal{fmt.Sprintf("u%05d", g.rng.Intn(40)), true}
	case "pid":
		return literal{fmt.Sprintf("p%04d", g.rng.Intn(24)), true}
	case "oid":
		return literal{fmt.Sprintf("o%07d", g.rng.Intn(80)), true}
	case "name":
		return literal{fmt.Sprintf("user-%d", g.rng.Intn(40)), true}
	case "city":
		return literal{fuzzCities[g.rng.Intn(len(fuzzCities))], true}
	case "category":
		return literal{fuzzCategories[g.rng.Intn(len(fuzzCategories))], true}
	case "key":
		return literal{fuzzPrefKeys[g.rng.Intn(len(fuzzPrefKeys))], true}
	case "val":
		return literal{fuzzPrefVals[g.rng.Intn(len(fuzzPrefVals))], true}
	case "qty":
		return literal{strconv.Itoa(1 + g.rng.Intn(4)), false}
	case "dur":
		return literal{strconv.Itoa(1 + g.rng.Intn(300)), false}
	case "amount":
		return literal{strconv.FormatFloat(float64(5+g.rng.Intn(200)), 'f', 1, 64), false}
	default:
		return literal{"zzz-" + col, true}
	}
}

// quote renders a literal with the given string delimiter.
func (l literal) quote(q byte) string {
	if !l.isStr {
		return l.text
	}
	return string(q) + l.text + string(q)
}

// renderSQL renders the model as a mini-SQL SELECT.
func renderSQL(m *model) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, p := range m.projection {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s.%s", p.alias, p.col)
	}
	b.WriteString(" FROM ")
	for i, a := range m.aliases {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", m.relOf[a], a)
	}
	writePreds(&b, m, " WHERE ", " AND ", '\'')
	return b.String()
}

// renderFLWOR renders the model as a mini-FLWOR expression.
func renderFLWOR(m *model) string {
	var b strings.Builder
	b.WriteString("for ")
	for i, a := range m.aliases {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s in %s", a, m.relOf[a])
	}
	writePreds(&b, m, " where ", " and ", '"')
	b.WriteString(" return ")
	for i, p := range m.projection {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s.%s", p.alias, p.col)
	}
	return b.String()
}

// writePreds appends the equality and filter predicates shared by the
// SQL and FLWOR renderings.
func writePreds(b *strings.Builder, m *model, clause, sep string, q byte) {
	wrote := false
	emit := func(s string) {
		if !wrote {
			b.WriteString(clause)
			wrote = true
		} else {
			b.WriteString(sep)
		}
		b.WriteString(s)
	}
	for _, eq := range m.equalities {
		emit(fmt.Sprintf("%s.%s = %s.%s", eq[0].alias, eq[0].col, eq[1].alias, eq[1].col))
	}
	for _, f := range m.filters {
		emit(fmt.Sprintf("%s.%s = %s", f.ref.alias, f.ref.col, f.lit.quote(q)))
	}
}

// renderCQ renders the model in datalog notation: one variable per
// union-find class, constants inlined where a filter pinned the class.
func renderCQ(m *model) string {
	names := map[colRef]string{}
	term := func(c colRef) string {
		if lit, ok := m.pinned(c); ok {
			return lit.quote('\'')
		}
		root := m.find(c)
		if n, ok := names[root]; ok {
			return n
		}
		n := fmt.Sprintf("x%d", len(names))
		names[root] = n
		return n
	}
	var b strings.Builder
	b.WriteString("Q(")
	for i, p := range m.projection {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(term(p))
	}
	b.WriteString(") :- ")
	for i, a := range m.aliases {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(m.relOf[a])
		b.WriteString("(")
		for j, col := range scenario.LogicalSchema[m.relOf[a]] {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(term(colRef{a, col}))
		}
		b.WriteString(")")
	}
	return b.String()
}
