package scholar

import (
	"testing"
)

func TestNameIndexResolve(t *testing.T) {
	ix := NewNameIndex()
	ix.Register("Wei Zhang", "gs001")
	ix.Register("Eitan Frachtenberg", "gs002")
	ix.Register("Wei Zhang", "gs003") // namesake

	id, cands, r := ix.Resolve("Eitan Frachtenberg")
	if r != Unique || id != "gs002" || len(cands) != 1 {
		t.Errorf("unique resolve = (%q, %v, %v)", id, cands, r)
	}
	id, cands, r = ix.Resolve("Wei Zhang")
	if r != Ambiguous || id != "" {
		t.Errorf("namesake resolve = (%q, %v, %v)", id, cands, r)
	}
	if len(cands) != 2 || cands[0] != "gs001" || cands[1] != "gs003" {
		t.Errorf("candidates = %v", cands)
	}
	if _, _, r := ix.Resolve("Nobody Here"); r != NotFound {
		t.Errorf("missing name resolved: %v", r)
	}
}

func TestNameIndexNormalization(t *testing.T) {
	ix := NewNameIndex()
	ix.Register("  Mary   Shaw ", "gs1")
	if _, _, r := ix.Resolve("mary shaw"); r != Unique {
		t.Error("case/whitespace normalization failed")
	}
	// Duplicate (name, id) registration is a no-op.
	ix.Register("Mary Shaw", "gs1")
	if _, cands, r := ix.Resolve("MARY SHAW"); r != Unique || len(cands) != 1 {
		t.Errorf("duplicate registration created ambiguity: %v %v", cands, r)
	}
	// Empty inputs ignored.
	ix.Register("", "gsX")
	ix.Register("Someone", "")
	if _, _, r := ix.Resolve(""); r != NotFound {
		t.Error("empty name should not resolve")
	}
	if _, _, r := ix.Resolve("Someone"); r != NotFound {
		t.Error("empty-id registration should be ignored")
	}
}

func TestNameIndexNames(t *testing.T) {
	ix := NewNameIndex()
	ix.Register("Zed Last", "z")
	ix.Register("Amy First", "a")
	names := ix.Names()
	if len(names) != 2 || names[0] != "amy first" || names[1] != "zed last" {
		t.Errorf("Names = %v", names)
	}
}

// TestNameIndexOverCorpusNames: common surnames in the corpus create
// genuine ambiguity, so the unambiguous rate sits strictly between 0 and 1
// — the mechanism behind the paper's 68.3% coverage.
func TestNameIndexOverCorpusNames(t *testing.T) {
	// Simulate a small directory where some names collide.
	ix := NewNameIndex()
	names := []string{
		"Wei Wang", "Wei Wang", "Ming Li", "Mary Johnson", "John Smith",
		"John Smith", "Priya Sharma", "Hiroshi Sato", "Li Chen", "Li Chen",
	}
	for i, n := range names {
		ix.Register(n, string(rune('a'+i)))
	}
	distinct := []string{"Wei Wang", "Ming Li", "Mary Johnson", "John Smith",
		"Priya Sharma", "Hiroshi Sato", "Li Chen"}
	unique := 0
	for _, n := range distinct {
		if _, _, r := ix.Resolve(n); r == Unique {
			unique++
		}
	}
	// Exactly 4 of 7 distinct names are unique here.
	if unique != 4 {
		t.Errorf("%d of %d names resolve uniquely, want 4", unique, len(distinct))
	}
}
