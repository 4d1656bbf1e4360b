package pivot

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func pathInstance(n int) *Instance {
	in := NewInstance()
	for i := 0; i < n; i++ {
		in.Add(NewAtom("E", CInt(int64(i)), CInt(int64(i+1))))
	}
	return in
}

func TestFindHomSimple(t *testing.T) {
	in := pathInstance(3) // E(0,1) E(1,2) E(2,3)
	atoms := []Atom{
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("E", Var("y"), Var("z")),
	}
	h, ok := FindHom(atoms, in, nil)
	if !ok {
		t.Fatal("no homomorphism on a path of length 3")
	}
	x := h.Subst.ApplyTerm(Var("x"))
	y := h.Subst.ApplyTerm(Var("y"))
	z := h.Subst.ApplyTerm(Var("z"))
	if !in.Has(NewAtom("E", x, y)) || !in.Has(NewAtom("E", y, z)) {
		t.Errorf("hom image not in instance: %v %v %v", x, y, z)
	}
}

func TestFindHomRespectsConstants(t *testing.T) {
	in := pathInstance(3)
	atoms := []Atom{NewAtom("E", CInt(1), Var("y"))}
	h, ok := FindHom(atoms, in, nil)
	if !ok {
		t.Fatal("expected match for E(1,y)")
	}
	if !SameTerm(h.Subst.ApplyTerm(Var("y")), CInt(2)) {
		t.Errorf("y = %v, want 2", h.Subst.ApplyTerm(Var("y")))
	}
	if _, ok := FindHom([]Atom{NewAtom("E", CInt(9), Var("y"))}, in, nil); ok {
		t.Error("matched a constant absent from the instance")
	}
}

func TestFindHomWithFixed(t *testing.T) {
	in := pathInstance(3)
	atoms := []Atom{NewAtom("E", Var("x"), Var("y"))}
	fixed := Subst{"x": CInt(2)}
	h, ok := FindHom(atoms, in, fixed)
	if !ok {
		t.Fatal("expected match with fixed x=2")
	}
	if !SameTerm(h.Subst.ApplyTerm(Var("y")), CInt(3)) {
		t.Errorf("y = %v", h.Subst.ApplyTerm(Var("y")))
	}
	fixedBad := Subst{"x": CInt(3)} // E(3,·) does not exist
	if _, ok := FindHom(atoms, in, fixedBad); ok {
		t.Error("matched with impossible fixed binding")
	}
}

func TestForEachHomEnumeratesAll(t *testing.T) {
	in := pathInstance(4) // 4 edges
	atoms := []Atom{NewAtom("E", Var("x"), Var("y"))}
	count := 0
	ForEachHom(atoms, in, nil, func(HomResult) bool {
		count++
		return true
	})
	if count != 4 {
		t.Errorf("enumerated %d homs, want 4", count)
	}
	// Early stop.
	count = 0
	ForEachHom(atoms, in, nil, func(HomResult) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop enumerated %d homs, want 2", count)
	}
}

func TestForEachHomRepeatedVariable(t *testing.T) {
	in := NewInstance()
	in.Add(NewAtom("R", CInt(1), CInt(1)))
	in.Add(NewAtom("R", CInt(1), CInt(2)))
	atoms := []Atom{NewAtom("R", Var("x"), Var("x"))}
	count := 0
	ForEachHom(atoms, in, nil, func(HomResult) bool { count++; return true })
	if count != 1 {
		t.Errorf("R(x,x) matched %d facts, want 1", count)
	}
}

func TestForEachHomEmptyAtoms(t *testing.T) {
	in := pathInstance(1)
	called := false
	ForEachHom(nil, in, Subst{"x": CInt(1)}, func(h HomResult) bool {
		called = true
		if !SameTerm(h.Subst.ApplyTerm(Var("x")), CInt(1)) {
			t.Error("fixed substitution not propagated")
		}
		return true
	})
	if !called {
		t.Error("empty conjunction must yield exactly the fixed hom")
	}
}

func TestHomFactIdx(t *testing.T) {
	in := NewInstance()
	i0, _ := in.Add(NewAtom("R", CInt(1)))
	i1, _ := in.Add(NewAtom("S", CInt(1)))
	atoms := []Atom{NewAtom("R", Var("x")), NewAtom("S", Var("x"))}
	h, ok := FindHom(atoms, in, nil)
	if !ok {
		t.Fatal("no hom")
	}
	if h.FactIdx[0] != i0 || h.FactIdx[1] != i1 {
		t.Errorf("FactIdx = %v, want [%d %d]", h.FactIdx, i0, i1)
	}
}

func TestContainment(t *testing.T) {
	// q1: path of length 2; q2: single edge. q1 ⊑ q2 (projecting on start).
	q1 := NewCQ(NewAtom("Q", Var("x")),
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("E", Var("y"), Var("z")))
	q2 := NewCQ(NewAtom("Q", Var("a")),
		NewAtom("E", Var("a"), Var("b")))
	if !ContainedIn(q1, q2) {
		t.Error("path2 ⊑ edge should hold")
	}
	if ContainedIn(q2, q1) {
		t.Error("edge ⊑ path2 should fail")
	}
}

func TestContainmentWithConstants(t *testing.T) {
	qc := NewCQ(NewAtom("Q", Var("x")), NewAtom("E", Var("x"), CInt(7)))
	qv := NewCQ(NewAtom("Q", Var("x")), NewAtom("E", Var("x"), Var("y")))
	if !ContainedIn(qc, qv) {
		t.Error("constant query ⊑ variable query should hold")
	}
	if ContainedIn(qv, qc) {
		t.Error("variable query ⊑ constant query should fail")
	}
}

func TestContainmentHeadArity(t *testing.T) {
	q1 := NewCQ(NewAtom("Q", Var("x"), Var("y")), NewAtom("E", Var("x"), Var("y")))
	q2 := NewCQ(NewAtom("Q", Var("x")), NewAtom("E", Var("x"), Var("y")))
	if ContainedIn(q1, q2) || ContainedIn(q2, q1) {
		t.Error("different head arities can never be contained")
	}
}

func TestEquivalentModuloRenaming(t *testing.T) {
	q1 := NewCQ(NewAtom("Q", Var("x")), NewAtom("E", Var("x"), Var("y")))
	q2 := NewCQ(NewAtom("Q", Var("u")), NewAtom("E", Var("u"), Var("w")))
	if !Equivalent(q1, q2) {
		t.Error("renamed queries must be equivalent")
	}
}

func TestMinimizeRemovesRedundantAtom(t *testing.T) {
	// E(x,y) ∧ E(x,y') with only x in the head: y' atom is redundant.
	q := NewCQ(NewAtom("Q", Var("x")),
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("E", Var("x"), Var("y2")))
	m := Minimize(q)
	if len(m.Body) != 1 {
		t.Errorf("minimized body size = %d, want 1: %v", len(m.Body), m)
	}
	if !Equivalent(q, m) {
		t.Error("minimization changed semantics")
	}
}

func TestMinimizeKeepsCore(t *testing.T) {
	// Genuine path of length 2 with both endpoints distinguished: nothing
	// can be dropped.
	q := NewCQ(NewAtom("Q", Var("x"), Var("z")),
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("E", Var("y"), Var("z")))
	m := Minimize(q)
	if len(m.Body) != 2 {
		t.Errorf("minimize dropped a needed atom: %v", m)
	}
}

// Property: minimization always yields an equivalent query.
func TestMinimizeEquivalentQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(42))}
	f := func(edges [6][2]uint8, hv uint8) bool {
		body := make([]Atom, 0, len(edges))
		for _, e := range edges {
			body = append(body, NewAtom("E",
				Var(string(rune('a'+e[0]%4))),
				Var(string(rune('a'+e[1]%4)))))
		}
		head := NewAtom("Q", Var(string(rune('a'+hv%4))))
		q := NewCQ(head, body...)
		if q.Validate() != nil {
			return true // skip unsafe random queries
		}
		m := Minimize(q)
		return Equivalent(q, m) && len(m.Body) <= len(q.Body)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: containment is reflexive and respects composition of renamings.
func TestContainmentReflexiveQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}
	f := func(edges [4][2]uint8) bool {
		body := make([]Atom, 0, len(edges))
		for _, e := range edges {
			body = append(body, NewAtom("E",
				Var(string(rune('a'+e[0]%3))),
				Var(string(rune('a'+e[1]%3)))))
		}
		q := NewCQ(NewAtom("Q", body[0].Args[0]), body...)
		return ContainedIn(q, q) && Equivalent(q, q.Rename("r_"))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// The hom-search loop is the inner loop of chase and backchase: a warmed
// search over a three-atom chain must not allocate (BenchmarkHomSearch's
// shape, asserted where tier-1 runs it).
func TestHomSearchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	in := NewInstance()
	for i := 0; i < 400; i++ {
		in.Add(NewAtom("E", CInt(int64((i*13)%60)), CInt(int64((i*7+3)%60))))
	}
	atoms := []Atom{
		NewAtom("E", Var("x"), Var("y")),
		NewAtom("E", Var("y"), Var("z")),
		NewAtom("E", Var("z"), Var("w")),
	}
	found := 0
	count := func(Binding) bool { found++; return true }
	allocs := testing.AllocsPerRun(20, func() { ForEachHomBind(atoms, in, nil, count) })
	if found == 0 {
		t.Fatal("no homomorphisms")
	}
	if allocs != 0 {
		t.Fatalf("hom search allocates %v per run", allocs)
	}
}
