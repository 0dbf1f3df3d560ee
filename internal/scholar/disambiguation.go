package scholar

import (
	"sort"
	"strings"
	"sync"
)

// NameIndex models the disambiguation problem behind the paper's "we were
// able to unambiguously link approximately two thirds (68.3%) of
// researchers ... to a Google Scholar profile": profiles are found by
// name, and a name shared by several profiles cannot be linked without
// manual evidence. The index maps normalized names to candidate profile
// IDs and reports whether resolution is unique.
type NameIndex struct {
	mu     sync.RWMutex
	byName map[string][]string
}

// NewNameIndex returns an empty index.
func NewNameIndex() *NameIndex {
	return &NameIndex{byName: make(map[string][]string)}
}

// normalizeName lowercases and collapses interior whitespace, the minimal
// canonicalization search engines apply to author names.
func normalizeName(name string) string {
	return strings.Join(strings.Fields(strings.ToLower(name)), " ")
}

// Register adds a profile ID under a researcher name. Registering the same
// (name, id) pair twice is a no-op.
func (ix *NameIndex) Register(name, id string) {
	key := normalizeName(name)
	if key == "" || id == "" {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, existing := range ix.byName[key] {
		if existing == id {
			return
		}
	}
	ix.byName[key] = append(ix.byName[key], id)
}

// Resolution classifies a name lookup.
type Resolution int

const (
	// NotFound: no profile carries this name.
	NotFound Resolution = iota
	// Unique: exactly one profile — the paper's "unambiguously linked".
	Unique
	// Ambiguous: several namesakes; linking needs manual evidence.
	Ambiguous
)

// Resolve looks up a name. For Unique resolutions the profile ID is
// returned; for Ambiguous, the candidate list (sorted) is returned with an
// empty ID.
func (ix *NameIndex) Resolve(name string) (id string, candidates []string, r Resolution) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ids := ix.byName[normalizeName(name)]
	switch len(ids) {
	case 0:
		return "", nil, NotFound
	case 1:
		return ids[0], []string{ids[0]}, Unique
	default:
		out := append([]string(nil), ids...)
		sort.Strings(out)
		return "", out, Ambiguous
	}
}

// Names returns the registered normalized names, sorted.
func (ix *NameIndex) Names() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.byName))
	for n := range ix.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
