package engine

import (
	"testing"

	"repro/internal/value"
)

func TestCounters(t *testing.T) {
	var c Counters
	c.AddRequest()
	c.AddScan()
	c.AddLookup()
	c.AddTuples(5)
	s := c.Snapshot()
	if s.Requests != 1 || s.Scans != 1 || s.Lookups != 1 || s.Tuples != 5 {
		t.Errorf("snapshot = %+v", s)
	}
	c.AddTuples(5)
	d := c.Snapshot().Sub(s)
	if d.Tuples != 5 || d.Requests != 0 {
		t.Errorf("diff = %+v", d)
	}
	c.Reset()
	if c.Snapshot() != (CounterSnapshot{}) {
		t.Error("reset failed")
	}
}

func TestCapability(t *testing.T) {
	c := CapScan | CapJoin
	if !c.Has(CapScan) || !c.Has(CapScan|CapJoin) || c.Has(CapKeyLookup) {
		t.Error("capability mask broken")
	}
}

func TestDQueryValidate(t *testing.T) {
	ok := DQuery{
		Atoms: []DAtom{{Collection: "R", Terms: []DTerm{DVar("x"), DConst(value.Int(1))}}},
		Out:   []string{"x"},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	bad := DQuery{
		Atoms: []DAtom{{Collection: "R", Terms: []DTerm{DVar("x")}}},
		Out:   []string{"nope"},
	}
	if err := bad.Validate(); err == nil {
		t.Error("unbound output accepted")
	}
	if err := (DQuery{}).Validate(); err == nil {
		t.Error("empty query accepted")
	}
	mixed := DQuery{Atoms: []DAtom{{Collection: "R", Terms: []DTerm{{}}}}}
	if err := mixed.Validate(); err == nil {
		t.Error("term with neither var nor const accepted")
	}
}

// tableAccess builds an AccessFunc over in-memory named relations.
func tableAccess(tables map[string][]value.Tuple) AccessFunc {
	return func(coll string, filters []EqFilter) ([]value.Tuple, error) {
		var out []value.Tuple
		for _, r := range tables[coll] {
			if MatchAll(r, filters) {
				out = append(out, r)
			}
		}
		return out, nil
	}
}

func TestEvalDelegateSingleAtom(t *testing.T) {
	tables := map[string][]value.Tuple{
		"R": {value.TupleOf(1, "a"), value.TupleOf(2, "b")},
	}
	q := DQuery{
		Atoms: []DAtom{{Collection: "R", Terms: []DTerm{DConst(value.Int(2)), DVar("y")}}},
		Out:   []string{"y"},
	}
	got, err := DrainBatches(mustEval(t, q, tableAccess(tables)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !value.Equal(got[0][0], value.Str("b")) {
		t.Errorf("got %v", got)
	}
}

func TestEvalDelegateJoin(t *testing.T) {
	tables := map[string][]value.Tuple{
		"R": {value.TupleOf(1, 10), value.TupleOf(2, 20)},
		"S": {value.TupleOf(10, "x"), value.TupleOf(30, "y")},
	}
	q := DQuery{
		Atoms: []DAtom{
			{Collection: "R", Terms: []DTerm{DVar("a"), DVar("b")}},
			{Collection: "S", Terms: []DTerm{DVar("b"), DVar("c")}},
		},
		Out: []string{"a", "c"},
	}
	got, err := DrainBatches(mustEval(t, q, tableAccess(tables)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !value.Equal(got[0][0], value.Int(1)) || !value.Equal(got[0][1], value.Str("x")) {
		t.Errorf("join result = %v", got)
	}
}

func TestEvalDelegateRepeatedVar(t *testing.T) {
	tables := map[string][]value.Tuple{
		"R": {value.TupleOf(1, 1), value.TupleOf(1, 2)},
	}
	q := DQuery{
		Atoms: []DAtom{{Collection: "R", Terms: []DTerm{DVar("x"), DVar("x")}}},
		Out:   []string{"x"},
	}
	got, err := DrainBatches(mustEval(t, q, tableAccess(tables)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !value.Equal(got[0][0], value.Int(1)) {
		t.Errorf("R(x,x) = %v", got)
	}
}

func TestEvalDelegateEmptyResult(t *testing.T) {
	tables := map[string][]value.Tuple{"R": {value.TupleOf(1)}}
	q := DQuery{
		Atoms: []DAtom{
			{Collection: "R", Terms: []DTerm{DVar("x")}},
			{Collection: "S", Terms: []DTerm{DVar("x")}},
		},
		Out: []string{"x"},
	}
	got, err := DrainBatches(mustEval(t, q, tableAccess(tables)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func mustEval(t *testing.T, q DQuery, a AccessFunc) BatchIterator {
	t.Helper()
	it, err := EvalDelegate(q, a)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func TestMatchAll(t *testing.T) {
	row := value.TupleOf(1, "a")
	if !MatchAll(row, nil) {
		t.Error("empty filter must match")
	}
	if !MatchAll(row, []EqFilter{{0, value.Int(1)}, {1, value.Str("a")}}) {
		t.Error("matching filters rejected")
	}
	if MatchAll(row, []EqFilter{{0, value.Int(2)}}) {
		t.Error("non-matching filter accepted")
	}
	if MatchAll(row, []EqFilter{{-1, value.Int(1)}}) {
		t.Error("negative column accepted")
	}
	if MatchAll(row, []EqFilter{{9, value.Int(1)}}) {
		t.Error("out-of-range column accepted")
	}
}
