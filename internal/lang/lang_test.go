package lang

import (
	"errors"
	"math"
	"testing"

	"repro/internal/pivot"
)

var testSchema = Schema{
	"Users":  {"uid", "name", "city"},
	"Orders": {"oid", "uid", "pid"},
	"Carts":  {"uid", "pid", "qty"},
}

func TestParseSQLSimpleSelect(t *testing.T) {
	q, err := ParseSQL(`SELECT u.name FROM Users u WHERE u.city = 'paris'`, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Body) != 1 || q.Body[0].Pred != "Users" {
		t.Fatalf("body = %v", q.Body)
	}
	if q.Head.Arity() != 1 {
		t.Errorf("head = %v", q.Head)
	}
	// City position pinned to the constant.
	if !pivot.SameTerm(q.Body[0].Args[2], pivot.CStr("paris")) {
		t.Errorf("constant not pinned: %v", q.Body[0])
	}
}

func TestParseSQLJoin(t *testing.T) {
	q, err := ParseSQL(`SELECT u.name, o.pid FROM Users u, Orders o WHERE u.uid = o.uid`, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Body) != 2 {
		t.Fatalf("body = %v", q.Body)
	}
	// Join variable shared between Users[0] and Orders[1].
	if !pivot.SameTerm(q.Body[0].Args[0], q.Body[1].Args[1]) {
		t.Errorf("join variable not unified: %v", q)
	}
	if err := q.Validate(); err != nil {
		t.Error(err)
	}
}

func TestParseSQLStar(t *testing.T) {
	q, err := ParseSQL(`SELECT * FROM Users u`, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if q.Head.Arity() != 3 {
		t.Errorf("star head = %v", q.Head)
	}
}

func TestParseSQLIntLiteral(t *testing.T) {
	q, err := ParseSQL(`SELECT c.uid FROM Carts c WHERE c.qty = 3`, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !pivot.SameTerm(q.Body[0].Args[2], pivot.CInt(3)) {
		t.Errorf("int literal: %v", q.Body[0])
	}
}

func TestParseSQLNoAlias(t *testing.T) {
	q, err := ParseSQL(`SELECT Users.name FROM Users WHERE Users.city = 'lyon'`, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Body) != 1 {
		t.Fatalf("body = %v", q.Body)
	}
}

func TestParseSQLTransitiveEqualities(t *testing.T) {
	// u.uid = o.uid AND o.uid = c.uid: all three unify.
	q, err := ParseSQL(
		`SELECT u.name FROM Users u, Orders o, Carts c WHERE u.uid = o.uid AND o.uid = c.uid`,
		testSchema)
	if err != nil {
		t.Fatal(err)
	}
	uid0 := q.Body[0].Args[0]
	if !pivot.SameTerm(uid0, q.Body[1].Args[1]) || !pivot.SameTerm(uid0, q.Body[2].Args[0]) {
		t.Errorf("transitive unification broken: %v", q)
	}
}

func TestParseSQLConstantThroughEquality(t *testing.T) {
	// u.uid = o.uid AND u.uid = 'u1': both positions pinned to 'u1'.
	q, err := ParseSQL(
		`SELECT o.pid FROM Users u, Orders o WHERE u.uid = o.uid AND u.uid = 'u1'`,
		testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !pivot.SameTerm(q.Body[0].Args[0], pivot.CStr("u1")) ||
		!pivot.SameTerm(q.Body[1].Args[1], pivot.CStr("u1")) {
		t.Errorf("constant propagation broken: %v", q)
	}
}

func TestParseSQLErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT u.name FROM Ghost u`,
		`SELECT u.ghost FROM Users u`,
		`SELECT u.name FROM Users u WHERE u.city`,
		`SELECT u.name FROM Users u, Users u`,
		`SELECT u.name FROM Users u extra`,
		`SELECT x FROM Users u`, // unqualified select
	}
	for _, in := range bad {
		if _, err := ParseSQL(in, testSchema); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestParseFLWOR(t *testing.T) {
	q, err := ParseFLWOR(
		`for c in Carts, o in Orders where c.pid = o.pid and c.uid = "u1" return c.pid, c.qty`,
		testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Body) != 2 || q.Body[0].Pred != "Carts" || q.Body[1].Pred != "Orders" {
		t.Fatalf("body = %v", q.Body)
	}
	if !pivot.SameTerm(q.Body[0].Args[0], pivot.CStr("u1")) {
		t.Errorf("constant not pinned: %v", q.Body[0])
	}
	if !pivot.SameTerm(q.Body[0].Args[1], q.Body[1].Args[2]) {
		t.Errorf("join not unified: %v", q)
	}
	if q.Head.Arity() != 2 {
		t.Errorf("head = %v", q.Head)
	}
}

func TestParseFLWORErrors(t *testing.T) {
	bad := []string{
		``,
		`for`,
		`for c in Ghost return c.x`,
		`for c in Carts return c.ghost`,
		`for c in Carts where c.qty return c.pid`,
		`for c in Carts, c in Orders return c.pid`,
		`for c in Carts return c.pid trailing`,
	}
	for _, in := range bad {
		if _, err := ParseFLWOR(in, testSchema); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestSQLAndFLWORAgree(t *testing.T) {
	sqlQ, err := ParseSQL(
		`SELECT c.pid FROM Carts c, Orders o WHERE c.pid = o.pid AND c.uid = 'u1'`, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	flQ, err := ParseFLWOR(
		`for c in Carts, o in Orders where c.pid = o.pid and c.uid = "u1" return c.pid`, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !pivot.Equivalent(sqlQ, flQ) {
		t.Errorf("surface syntaxes disagree:\nsql:   %v\nflwor: %v", sqlQ, flQ)
	}
}

func TestLexerStringsAndNumbers(t *testing.T) {
	toks, err := lex(`'a b' "c" 12 -3 4.5 name`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokString, tokString, tokNumber, tokNumber, tokNumber, tokIdent, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("toks = %v", toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("tok %d kind = %v, want %v", i, toks[i].kind, k)
		}
	}
	if toks[0].text != "a b" {
		t.Errorf("string text = %q", toks[0].text)
	}
	if _, err := lex(`'unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex(`@`); err == nil {
		t.Error("bad character accepted")
	}
}

// A column class equated to two different literals has an empty answer;
// the parsers refuse it with ErrConflictingConstants instead of keeping
// one of the two constants.
func TestConflictingConstantsRefused(t *testing.T) {
	cases := []struct {
		name  string
		parse func(string, Schema) (pivot.CQ, error)
		text  string
	}{
		{"sql same column", ParseSQL, `SELECT u.name FROM Users u WHERE u.uid = '1' AND u.uid = '2'`},
		{"sql through a later equality", ParseSQL,
			`SELECT u.name FROM Users u, Users v WHERE u.uid = '1' AND v.uid = '2' AND u.uid = v.uid`},
		{"flwor same column", ParseFLWOR, `for u in Users where u.uid = "1" and u.uid = "2" return u.name`},
		{"sql int and string", ParseSQL, `SELECT c.pid FROM Carts c WHERE c.qty = 1 AND c.qty = '1'`},
	}
	for _, tc := range cases {
		if q, err := tc.parse(tc.text, testSchema); !errors.Is(err, ErrConflictingConstants) {
			t.Errorf("%s: got %v, %v; want ErrConflictingConstants", tc.name, q, err)
		}
	}
	// Equal literals are no conflict, on one column or across a join.
	for _, text := range []string{
		`SELECT u.name FROM Users u WHERE u.uid = '1' AND u.uid = '1'`,
		`SELECT u.name FROM Users u, Orders o WHERE u.uid = '1' AND o.uid = '1' AND u.uid = o.uid`,
	} {
		q, err := ParseSQL(text, testSchema)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if !pivot.SameTerm(q.Body[0].Args[0], pivot.CStr("1")) {
			t.Errorf("%s: constant not pinned: %v", text, q)
		}
	}
}

// A WHERE reference to an unknown alias or column is an error, not a
// predicate silently dropped; columns match the schema case-insensitively
// there as in the projection.
func TestWhereReferencesResolved(t *testing.T) {
	for _, text := range []string{
		`SELECT u.name FROM Users u WHERE zz.uid = '1'`,
		`SELECT u.name FROM Users u WHERE u.nosuch = '1'`,
		`SELECT u.name FROM Users u WHERE u.uid = zz.uid`,
	} {
		if q, err := ParseSQL(text, testSchema); err == nil {
			t.Errorf("accepted %q as %v", text, q)
		}
	}
	if q, err := ParseFLWOR(`for u in Users where zz.uid = "1" return u.name`, testSchema); err == nil {
		t.Errorf("flwor accepted an unknown binding as %v", q)
	}
	q, err := ParseSQL(`SELECT u.NAME FROM Users u WHERE u.UID = '1'`, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !pivot.SameTerm(q.Body[0].Args[0], pivot.CStr("1")) {
		t.Errorf("upper-case WHERE column not pinned: %v", q)
	}
}

// '$' may start an identifier but not continue one; a lone '$' is still
// a one-byte identifier, so the lexer makes progress.
func TestLexDollarTerminates(t *testing.T) {
	toks, err := lex(`$x $`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"$x", "$", ""}
	if len(toks) != len(want) {
		t.Fatalf("toks = %v", toks)
	}
	for i, w := range want {
		if toks[i].text != w {
			t.Errorf("tok %d = %q, want %q", i, toks[i].text, w)
		}
	}
}

// Shape masks exactly the literals: texts that differ only in literal
// values, whitespace and quotes share a shape, and each literal converts
// to the constant the parser puts in its place.
func TestShapeMasksLiterals(t *testing.T) {
	shape := func(text string) (string, []Literal) {
		s, lits, ok := Shape(text, nil, nil)
		if !ok {
			t.Fatalf("Shape declined %q", text)
		}
		return string(s), lits
	}
	a, litsA := shape(`SELECT c.pid FROM Carts c WHERE c.uid = 'u1' AND c.qty = 3`)
	b, _ := shape("SELECT  c.pid FROM Carts c\nWHERE c.uid = \"u22\" AND c.qty = -17")
	if a != b {
		t.Errorf("shapes differ:\n%q\n%q", a, b)
	}
	for _, other := range []string{
		`SELECT c.pid FROM Carts c WHERE c.uid = 'u1' AND c.qty = 3.0`, // float, not int
		`SELECT c.pid FROM Carts c WHERE c.uid = 'u1' AND c.qty = '3'`, // string, not int
		`SELECT c.qty FROM Carts c WHERE c.uid = 'u1' AND c.qty = 3`,   // another column
	} {
		if s, _ := shape(other); s == a {
			t.Errorf("%q shares the shape of a different query", other)
		}
	}
	q, err := ParseSQL(`SELECT c.pid FROM Carts c WHERE c.uid = 'u1' AND c.qty = 3`, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(litsA) != 2 || !pivot.SameTerm(litsA[0].Const(), q.Body[0].Args[0]) ||
		!pivot.SameTerm(litsA[1].Const(), q.Body[0].Args[2]) {
		t.Errorf("literals %v do not convert to the parsed constants of %v", litsA, q)
	}
	for _, text := range []string{
		`SELECT c.pid FROM Carts c WHERE c.qty = 99999999999999999999`, // int64 overflow
		`SELECT c.pid FROM Carts c WHERE c.qty = 1.2.3`,
		`SELECT c.pid FROM Carts c WHERE c.uid = 'open`,
		`SELECT c.pid FROM Carts c WHERE c.qty = @`,
	} {
		if _, _, ok := Shape(text, nil, nil); ok {
			t.Errorf("Shape accepted %q, which the parser rejects", text)
		}
		if _, err := ParseSQL(text, testSchema); err == nil {
			t.Errorf("parser accepted %q", text)
		}
	}
	if !(Literal{Kind: LitFloat, Float: 1.5}).Equal(Literal{Kind: LitFloat, Float: 1.5}) ||
		(Literal{Kind: LitFloat}).Equal(Literal{Kind: LitFloat, Float: math.Copysign(0, -1)}) ||
		(Literal{Kind: LitInt, Int: 1}).Equal(Literal{Kind: LitFloat, Float: 1}) {
		t.Error("Literal.Equal disagrees with constant keys")
	}
}
