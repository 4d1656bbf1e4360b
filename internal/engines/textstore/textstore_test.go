package textstore

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

func newCatalog(t *testing.T) *Store {
	t.Helper()
	s := New("solr-test")
	if err := s.CreateCollection("products", "description"); err != nil {
		t.Fatal(err)
	}
	docs := []map[string]value.Value{
		{"pid": value.Str("p1"), "category": value.Str("audio"),
			"description": value.Str("Wireless noise-cancelling headphones")},
		{"pid": value.Str("p2"), "category": value.Str("audio"),
			"description": value.Str("Wired headphones with microphone")},
		{"pid": value.Str("p3"), "category": value.Str("video"),
			"description": value.Str("Wireless projector, silent fan")},
	}
	for _, d := range docs {
		if err := s.Insert("products", d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// search drains one un-attributed SearchBatchCounted request on "products".
func search(t *testing.T, s *Store, q Query) []value.Tuple {
	t.Helper()
	it, err := s.SearchBatchCounted(context.Background(), "products", q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := engine.DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Noise-Cancelling, wireless! 4K")
	want := []string{"noise", "cancelling", "wireless", "4k"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(empty) = %v", got)
	}
}

func TestSearchSingleTerm(t *testing.T) {
	s := newCatalog(t)
	rows := search(t, s, Query{Terms: []string{"wireless"}, Project: []string{"pid"}})
	if len(rows) != 2 {
		t.Fatalf("wireless hits = %v", rows)
	}
}

func TestSearchTermConjunction(t *testing.T) {
	s := newCatalog(t)
	rows := search(t, s, Query{
		Terms:   []string{"wireless", "headphones"},
		Project: []string{"pid"},
	})
	if len(rows) != 1 || !value.Equal(rows[0][0], value.Str("p1")) {
		t.Errorf("AND search = %v", rows)
	}
}

func TestSearchCaseInsensitive(t *testing.T) {
	s := newCatalog(t)
	rows := search(t, s, Query{Terms: []string{"WIRELESS"}, Project: []string{"pid"}})
	if len(rows) != 2 {
		t.Errorf("case-insensitive search = %v", rows)
	}
}

func TestSearchWithFieldFilter(t *testing.T) {
	s := newCatalog(t)
	rows := search(t, s, Query{
		Terms:   []string{"wireless"},
		Fields:  []FieldFilter{{Field: "category", Val: value.Str("audio")}},
		Project: []string{"pid", "category"},
	})
	if len(rows) != 1 || !value.Equal(rows[0][0], value.Str("p1")) {
		t.Errorf("filtered search = %v", rows)
	}
}

func TestSearchFieldOnly(t *testing.T) {
	s := newCatalog(t)
	rows := search(t, s, Query{
		Fields:  []FieldFilter{{Field: "category", Val: value.Str("video")}},
		Project: []string{"pid"},
	})
	if len(rows) != 1 || !value.Equal(rows[0][0], value.Str("p3")) {
		t.Errorf("field search = %v", rows)
	}
}

func TestSearchNoTermsNoFieldsScans(t *testing.T) {
	s := newCatalog(t)
	before := s.Counters().Snapshot()
	rows := search(t, s, Query{Project: []string{"pid"}})
	if len(rows) != 3 {
		t.Errorf("scan = %v", rows)
	}
	if d := s.Counters().Snapshot().Sub(before); d.Scans != 1 {
		t.Errorf("counters = %+v", d)
	}
}

func TestSearchMissingProjectField(t *testing.T) {
	s := newCatalog(t)
	rows := search(t, s, Query{Terms: []string{"projector"}, Project: []string{"pid", "nope"}})
	if len(rows) != 1 || rows[0][1].Kind() != value.KindNull {
		t.Errorf("missing field projection = %v", rows)
	}
}

func TestSearchUnknownTerm(t *testing.T) {
	s := newCatalog(t)
	rows := search(t, s, Query{Terms: []string{"zzz"}, Project: []string{"pid"}})
	if len(rows) != 0 {
		t.Errorf("unknown term hits = %v", rows)
	}
}

func TestCollectionErrors(t *testing.T) {
	s := New("solr")
	if err := s.Insert("missing", nil); err == nil {
		t.Error("index into missing collection accepted")
	}
	if _, err := s.SearchBatchCounted(context.Background(), "missing", Query{}, nil); err == nil {
		t.Error("search in missing collection accepted")
	}
	if err := s.CreateCollection("c"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateCollection("c"); err == nil {
		t.Error("duplicate collection accepted")
	}
	if err := s.DropCollection("c"); err != nil {
		t.Error(err)
	}
	if err := s.DropCollection("c"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestEngineInterface(t *testing.T) {
	s := New("solr")
	var e engine.Engine = s
	if e.Kind() != "fulltext" || !e.Capabilities().Has(engine.CapFullText) {
		t.Error("identity/capabilities broken")
	}
}

func TestLen(t *testing.T) {
	s := newCatalog(t)
	n, err := s.Len("products")
	if err != nil || n != 3 {
		t.Errorf("Len = %d, %v", n, err)
	}
}

func TestInsertAndDelete(t *testing.T) {
	s := newCatalog(t)
	if err := s.Insert("products", map[string]value.Value{
		"pid": value.Str("p9"), "category": value.Str("audio"),
		"description": value.Str("Wireless earbuds")}); err != nil {
		t.Fatal(err)
	}
	hits := func(terms ...string) int {
		return len(search(t, s, Query{Terms: terms, Project: []string{"pid"}}))
	}
	if got := hits("wireless"); got != 3 {
		t.Fatalf("wireless hits after insert = %d, want 3", got)
	}
	n, err := s.Delete("products", map[string]value.Value{
		"pid": value.Str("p9"), "category": value.Str("audio"),
		"description": value.Str("Wireless earbuds")})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	// Postings and field indexes are rebuilt: the deleted doc is gone and
	// the surviving positions still resolve correctly.
	if got := hits("wireless"); got != 2 {
		t.Fatalf("wireless hits after delete = %d, want 2", got)
	}
	if got := hits("wireless", "projector"); got != 1 {
		t.Fatalf("multi-term hits after delete = %d, want 1", got)
	}
	rows := search(t, s, Query{
		Fields:  []FieldFilter{{Field: "pid", Val: value.Str("p3")}},
		Project: []string{"pid", "category"}})
	if len(rows) != 1 || rows[0][1].(value.Str) != "video" {
		t.Fatalf("field index after delete = %v", rows)
	}
	// A doc missing one of the filter fields does not match.
	if n, err := s.Delete("products", map[string]value.Value{"nope": value.Str("x")}); err != nil || n != 0 {
		t.Fatalf("absent field: n=%d err=%v", n, err)
	}
	// Filterless delete is refused.
	if _, err := s.Delete("products", nil); err == nil {
		t.Error("filterless delete succeeded")
	}
}

func TestDeleteManyBatched(t *testing.T) {
	s := newCatalog(t)
	// Shared-field-set fast path: both criteria name pid+category+description.
	n, err := s.DeleteMany("products", []map[string]value.Value{
		{"pid": value.Str("p1"), "category": value.Str("audio"),
			"description": value.Str("Wireless noise-cancelling headphones")},
		{"pid": value.Str("p2"), "category": value.Str("audio"),
			"description": value.Str("Wired headphones with microphone")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	rows := search(t, s, Query{Terms: []string{"headphones"}, Project: []string{"pid"}})
	if len(rows) != 0 {
		t.Fatalf("headphones hits after batch delete = %v", rows)
	}
	// Mixed field sets fall back to the per-criterion path.
	n, err = s.DeleteMany("products", []map[string]value.Value{
		{"pid": value.Str("p3")},
		{"category": value.Str("video"), "pid": value.Str("p3")},
	})
	if err != nil || n != 1 {
		t.Fatalf("mixed criteria: n=%d err=%v", n, err)
	}
	if cnt, _ := s.Len("products"); cnt != 0 {
		t.Fatalf("len = %d, want 0", cnt)
	}
}
