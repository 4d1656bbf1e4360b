package docstore

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

func cartDoc(user string, items ...*value.Doc) *value.Doc {
	return value.DObj("user", user, "items", value.DArr(toAny(items)...))
}

func toAny(docs []*value.Doc) []any {
	out := make([]any, len(docs))
	for i, d := range docs {
		out[i] = d
	}
	return out
}

// findTuples drains one un-attributed FindTuplesBatchCounted request on
// "carts".
func findTuples(t *testing.T, s *Store, filters []PathFilter, paths []string) []value.Tuple {
	t.Helper()
	it, err := s.FindTuplesBatchCounted(context.Background(), "carts", filters, paths, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := engine.DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func newCarts(t *testing.T) *Store {
	t.Helper()
	s := New("mongo-test")
	if err := s.CreateCollection("carts"); err != nil {
		t.Fatal(err)
	}
	docs := []*value.Doc{
		cartDoc("u1",
			value.DObj("sku", "a1", "qty", 2),
			value.DObj("sku", "b2", "qty", 1)),
		cartDoc("u2", value.DObj("sku", "a1", "qty", 5)),
		cartDoc("u3"),
	}
	for _, d := range docs {
		if err := s.Insert("carts", d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestFindByPath(t *testing.T) {
	s := newCarts(t)
	docs, err := s.Find("carts", []PathFilter{{Path: "user", Val: value.Str("u1")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("found %d docs", len(docs))
	}
	if v, _ := docs[0].ScalarAt("user"); !value.Equal(v, value.Str("u1")) {
		t.Errorf("wrong doc: %v", docs[0])
	}
}

func TestFindUsesIndex(t *testing.T) {
	s := newCarts(t)
	if err := s.CreateIndex("carts", "user"); err != nil {
		t.Fatal(err)
	}
	before := s.Counters().Snapshot()
	if _, err := s.Find("carts", []PathFilter{{Path: "user", Val: value.Str("u2")}}); err != nil {
		t.Fatal(err)
	}
	d := s.Counters().Snapshot().Sub(before)
	if d.Scans != 0 || d.Lookups != 1 {
		t.Errorf("indexed find counters = %+v", d)
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	s := newCarts(t)
	if err := s.CreateIndex("carts", "user"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("carts", cartDoc("u9")); err != nil {
		t.Fatal(err)
	}
	docs, err := s.Find("carts", []PathFilter{{Path: "user", Val: value.Str("u9")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Errorf("index missed new doc: %v", docs)
	}
}

func TestFindNoMatch(t *testing.T) {
	s := newCarts(t)
	docs, err := s.Find("carts", []PathFilter{{Path: "user", Val: value.Str("zz")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 0 {
		t.Errorf("found %v", docs)
	}
}

func TestFindMissingPathNeverMatches(t *testing.T) {
	s := newCarts(t)
	docs, err := s.Find("carts", []PathFilter{{Path: "ghost.path", Val: value.Str("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 0 {
		t.Errorf("missing path matched %d docs", len(docs))
	}
}

func TestFindTuplesUnnestsItems(t *testing.T) {
	s := newCarts(t)
	rows := findTuples(t, s, []PathFilter{{Path: "user", Val: value.Str("u1")}},
		[]string{"user", "items.sku", "items.qty"})
	if len(rows) != 2 {
		t.Fatalf("unnest produced %d rows, want 2: %v", len(rows), rows)
	}
	if !value.Equal(rows[0][1], value.Str("a1")) || !value.Equal(rows[0][2], value.Int(2)) {
		t.Errorf("row 0 = %v", rows[0])
	}
	if !value.Equal(rows[1][1], value.Str("b2")) {
		t.Errorf("row 1 = %v", rows[1])
	}
}

func TestFindTuplesEmptyArray(t *testing.T) {
	s := newCarts(t)
	rows := findTuples(t, s, []PathFilter{{Path: "user", Val: value.Str("u3")}},
		[]string{"user", "items.sku"})
	// u3 has an empty items array: unnesting yields zero rows.
	if len(rows) != 0 {
		t.Errorf("empty array produced rows: %v", rows)
	}
}

func TestFindTuplesScalarOnly(t *testing.T) {
	s := newCarts(t)
	rows := findTuples(t, s, nil, []string{"user"})
	if len(rows) != 3 {
		t.Errorf("scalar projection rows = %d, want 3", len(rows))
	}
}

func TestProjectDocMissingPathNull(t *testing.T) {
	d := value.DObj("a", 1)
	rows := ProjectDoc(d, []string{"a", "missing"})
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][1].Kind() != value.KindNull {
		t.Errorf("missing path must be NULL, got %v", rows[0][1])
	}
}

func TestCollectionErrors(t *testing.T) {
	s := New("m")
	if err := s.Insert("missing", value.DObj()); err == nil {
		t.Error("insert into missing collection accepted")
	}
	if _, err := s.Find("missing", nil); err == nil {
		t.Error("find in missing collection accepted")
	}
	if err := s.CreateCollection("c"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateCollection("c"); err == nil {
		t.Error("duplicate collection accepted")
	}
	if err := s.CreateIndex("c", "p"); err != nil {
		t.Error(err)
	}
	if err := s.CreateIndex("c", "p"); err != nil {
		t.Error("CreateIndex must be idempotent")
	}
	if err := s.DropCollection("c"); err != nil {
		t.Error(err)
	}
	if n, err := s.Len("c"); err == nil {
		t.Errorf("Len on dropped collection = %d", n)
	}
}

func TestEngineInterface(t *testing.T) {
	s := New("m")
	var e engine.Engine = s
	if e.Kind() != "document" {
		t.Error("kind")
	}
	if e.Capabilities().Has(engine.CapJoin) {
		t.Error("document store must not advertise joins")
	}
	if !e.Capabilities().Has(engine.CapNested) {
		t.Error("document store must advertise nested results")
	}
}

func TestDeleteByPathFilters(t *testing.T) {
	s := New("mongo-del")
	if err := s.CreateCollection("carts"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("carts", "user"); err != nil {
		t.Fatal(err)
	}
	docs := []*value.Doc{
		value.DObj("user", "u1", "sku", "a", "qty", int64(2)),
		value.DObj("user", "u1", "sku", "b", "qty", int64(1)),
		value.DObj("user", "u2", "sku", "a", "qty", int64(5)),
	}
	for _, d := range docs {
		if err := s.Insert("carts", d); err != nil {
			t.Fatal(err)
		}
	}
	n, err := s.Delete("carts", []PathFilter{
		{Path: "user", Val: value.Str("u1")}, {Path: "sku", Val: value.Str("a")}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	// Index was rebuilt: u1 lookup finds only the surviving doc.
	found, err := s.Find("carts", []PathFilter{{Path: "user", Val: value.Str("u1")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 {
		t.Fatalf("post-delete u1 docs = %d, want 1", len(found))
	}
	// Deleting without filters is refused (would drop the collection).
	if _, err := s.Delete("carts", nil); err == nil {
		t.Error("filterless delete succeeded")
	}
	// No match: zero removals, no error.
	if n, err := s.Delete("carts", []PathFilter{{Path: "user", Val: value.Str("ghost")}}); err != nil || n != 0 {
		t.Fatalf("absent: n=%d err=%v", n, err)
	}
}

func TestDeleteTuplesBatched(t *testing.T) {
	s := New("mongo-batch")
	if err := s.CreateCollection("c"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("c", "a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Insert("c", value.DObj("a", fmt.Sprintf("k%d", i), "b", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	paths := []string{"a", "b"}
	n, err := s.DeleteTuples("c", paths, []value.Tuple{
		value.TupleOf("k1", int64(1)),
		value.TupleOf("k4", int64(4)),
		value.TupleOf("ghost", int64(9)), // no match
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	left, err := s.Len("c")
	if err != nil || left != 4 {
		t.Fatalf("len = %d err=%v", left, err)
	}
	// Index rebuilt against survivors.
	found, err := s.Find("c", []PathFilter{{Path: "a", Val: value.Str("k4")}})
	if err != nil || len(found) != 0 {
		t.Fatalf("deleted doc still indexed: %v err=%v", found, err)
	}
	if _, err := s.DeleteTuples("c", nil, []value.Tuple{value.TupleOf("x")}); err == nil {
		t.Error("pathless batched delete succeeded")
	}
}
