package pivot

import (
	"reflect"
	"strings"
	"testing"
)

func TestAtomBasics(t *testing.T) {
	a := NewAtom("R", Var("x"), CInt(3), Var("x"), Var("y"))
	if a.Arity() != 4 {
		t.Fatalf("arity = %d", a.Arity())
	}
	if got := a.Vars(); !reflect.DeepEqual(got, []Var{"x", "y"}) {
		t.Errorf("vars = %v", got)
	}
	if a.IsGround() {
		t.Error("atom with vars reported ground")
	}
	g := NewAtom("R", CInt(1), CStr("a"))
	if !g.IsGround() {
		t.Error("ground atom reported non-ground")
	}
}

func TestAtomKeyAndString(t *testing.T) {
	a := NewAtom("R", Var("x"), CStr("v"))
	b := NewAtom("R", Var("x"), CStr("v"))
	c := NewAtom("R", Var("y"), CStr("v"))
	if a.Key() != b.Key() {
		t.Error("equal atoms must share keys")
	}
	if a.Key() == c.Key() {
		t.Error("different atoms must have different keys")
	}
	if a.String() != `R(x, "v")` {
		t.Errorf("String = %q", a.String())
	}
}

// String constants that spell a separator and the next term's key must
// not make distinct atoms share a key.
func TestAtomKeyInjectiveForStrings(t *testing.T) {
	pairs := [][2]Atom{
		{NewAtom("R", CStr("a,#sb"), CStr("c"), Var("z")), NewAtom("R", CStr("a"), CStr("b,#sc"), Var("z"))},
		{NewAtom("R", CStr("x|#sy"), CStr("z"), Var("z")), NewAtom("R", CStr("x"), CStr("y|#sz"), Var("z"))},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("%s and %s share key %q", p[0], p[1], p[0].Key())
		}
	}
	long := CStr(strings.Repeat("x", 1000))
	if n := testing.AllocsPerRun(100, func() { _ = long.Key() }); n > 1 {
		t.Errorf("string Const.Key allocates %v times, want 1", n)
	}
}

func TestSameAtom(t *testing.T) {
	a := NewAtom("R", Var("x"))
	if !SameAtom(a, a.Clone()) {
		t.Error("clone must equal original")
	}
	if SameAtom(a, NewAtom("S", Var("x"))) {
		t.Error("different predicate")
	}
	if SameAtom(a, NewAtom("R", Var("x"), Var("y"))) {
		t.Error("different arity")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewAtom("R", Var("x"), Var("y"))
	b := a.Clone()
	b.Args[0] = CInt(1)
	if !SameTerm(a.Args[0], Var("x")) {
		t.Error("clone shares Args storage with original")
	}
}

func TestAtomsVarsAndPreds(t *testing.T) {
	atoms := []Atom{
		NewAtom("R", Var("x"), Var("y")),
		NewAtom("S", Var("y"), Var("z"), CInt(1)),
		NewAtom("R", Var("z"), Var("x")),
	}
	if got := AtomsVars(atoms); !reflect.DeepEqual(got, []Var{"x", "y", "z"}) {
		t.Errorf("AtomsVars = %v", got)
	}
	if got := AtomsPreds(atoms); !reflect.DeepEqual(got, []string{"R", "S"}) {
		t.Errorf("AtomsPreds = %v", got)
	}
}

func TestSubstBindApply(t *testing.T) {
	s := NewSubst()
	if !s.Bind("x", CInt(1)) {
		t.Fatal("first bind failed")
	}
	if !s.Bind("x", CInt(1)) {
		t.Error("re-binding to the same term must succeed")
	}
	if s.Bind("x", CInt(2)) {
		t.Error("conflicting bind must fail")
	}
	a := NewAtom("R", Var("x"), Var("y"), CStr("k"))
	got := s.ApplyAtom(a)
	want := NewAtom("R", CInt(1), Var("y"), CStr("k"))
	if !SameAtom(got, want) {
		t.Errorf("ApplyAtom = %v, want %v", got, want)
	}
}

func TestSubstCompose(t *testing.T) {
	s := Subst{"x": Var("y")}
	u := Subst{"y": CInt(7), "z": CStr("w")}
	c := s.Compose(u)
	if !SameTerm(c.ApplyTerm(Var("x")), CInt(7)) {
		t.Errorf("compose x = %v", c.ApplyTerm(Var("x")))
	}
	if !SameTerm(c.ApplyTerm(Var("y")), CInt(7)) {
		t.Errorf("compose y = %v", c.ApplyTerm(Var("y")))
	}
	if !SameTerm(c.ApplyTerm(Var("z")), CStr("w")) {
		t.Errorf("compose z = %v", c.ApplyTerm(Var("z")))
	}
}

func TestSubstCloneIndependence(t *testing.T) {
	s := Subst{"x": CInt(1)}
	c := s.Clone()
	c["x"] = CInt(2)
	if !SameTerm(s["x"], CInt(1)) {
		t.Error("clone aliases original map")
	}
}

func TestSubstString(t *testing.T) {
	s := Subst{"b": CInt(2), "a": CInt(1)}
	if got := s.String(); got != "{a↦1, b↦2}" {
		t.Errorf("String = %q", got)
	}
}

func TestConstraintStrings(t *testing.T) {
	d := NewTGD("t", []Atom{NewAtom("R", Var("x"))}, []Atom{NewAtom("S", Var("x"), Var("y"))})
	s := d.String()
	for _, want := range []string{"t:", "R(x)", "→", "∃y", "S(x, y)"} {
		if !strings.Contains(s, want) {
			t.Errorf("TGD string missing %q: %s", want, s)
		}
	}
	e := NewEGD("e", []Atom{NewAtom("R", Var("x"), Var("y"))}, Var("x"), Var("y"))
	if !strings.Contains(e.String(), "x = y") {
		t.Errorf("EGD string: %s", e.String())
	}
}

func TestAtomsString(t *testing.T) {
	s := AtomsString([]Atom{NewAtom("R", Var("x")), NewAtom("S", CInt(1))})
	if s != "R(x) ∧ S(1)" {
		t.Errorf("AtomsString = %q", s)
	}
}

func TestFreezeAtoms(t *testing.T) {
	inst, sub := FreezeAtoms([]Atom{NewAtom("R", Var("x"), Var("x"))})
	if inst.Len() != 1 {
		t.Fatalf("len = %d", inst.Len())
	}
	n := sub["x"]
	if !inst.Has(NewAtom("R", n, n)) {
		t.Error("repeated var must freeze to the same null")
	}
}

func TestInstanceDebugDumpAndString(t *testing.T) {
	inst := NewInstance()
	inst.Add(NewAtom("R", CInt(1)))
	inst.Add(NewAtom("S", CStr("a")))
	if !strings.Contains(inst.DebugDump(), "0: R(1)") {
		t.Errorf("DebugDump = %q", inst.DebugDump())
	}
	if !strings.Contains(inst.String(), `S("a")`) {
		t.Errorf("String = %q", inst.String())
	}
}

func TestTermKindString(t *testing.T) {
	if KindVar.String() != "var" || KindConst.String() != "const" || KindNull.String() != "null" {
		t.Error("TermKind strings")
	}
	if TermKind(99).String() != "invalid" {
		t.Error("invalid kind string")
	}
}
