package scholar

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
)

// Directory is an in-memory stand-in for the Google Scholar profile
// registry: researcher ID to Profile, with deliberately incomplete
// coverage (the paper could link only 68.3% of researchers, and the
// missing third skews less experienced).
//
// Concurrency contract: all methods are safe for concurrent use (reads
// take an RLock, writes the lock), and every accessor returns copies —
// Lookup returns a value, IDs and Snapshot freshly allocated containers —
// so callers such as the concurrent harvester can never alias internal
// state. The typical pattern is single-goroutine population followed by
// many-goroutine reads.
type Directory struct {
	mu       sync.RWMutex
	profiles map[string]Profile
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{profiles: make(map[string]Profile)}
}

// Register adds or replaces a researcher's profile. An invalid profile is
// rejected.
func (d *Directory) Register(id string, p Profile) error {
	if id == "" {
		return fmt.Errorf("scholar: empty researcher id")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.profiles[id] = p
	return nil
}

// Lookup returns the profile for a researcher ID, reproducing the paper's
// "unambiguously linked" semantics: a miss means no profile could be
// identified for that researcher.
func (d *Directory) Lookup(id string) (Profile, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.profiles[id]
	return p, ok
}

// Len returns the number of registered profiles.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.profiles)
}

// Coverage returns the fraction of ids that resolve to a profile.
func (d *Directory) Coverage(ids []string) float64 {
	if len(ids) == 0 {
		return 0
	}
	hit := 0
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, id := range ids {
		if _, ok := d.profiles[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(ids))
}

// IDs returns the registered researcher IDs, sorted. The slice is a copy
// owned by the caller.
func (d *Directory) IDs() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.profiles))
	for id := range d.profiles {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SemanticScholar is the second bibliometric source: 100% author coverage
// but an independent disambiguation pipeline, so its publication counts
// correlate only weakly with Google Scholar's (the paper measures
// r = 0.334). The simulation derives each count from the same underlying
// career with heavy multiplicative noise plus an occasional disambiguation
// blunder (merging or splitting author records).
//
// Concurrency contract: identical to Directory's — all methods are safe
// for concurrent use and accessors return copies (PastPublications a
// value, IDs a fresh slice), so concurrent harvest workers may share one
// instance freely. RegisterFromTruth consumes a caller-owned rand and is
// typically confined to the single-goroutine population phase.
type SemanticScholar struct {
	mu     sync.RWMutex
	counts map[string]int
}

// NewSemanticScholar returns an empty Semantic Scholar stand-in.
func NewSemanticScholar() *SemanticScholar {
	return &SemanticScholar{counts: make(map[string]int)}
}

// DisambiguationNoise captures how far the S2 record strays from truth.
type DisambiguationNoise struct {
	Sigma      float64 // log-normal noise on the true count
	PBlunder   float64 // probability of a merge/split blunder
	BlunderMul float64 // multiplicative size of a blunder (e.g. 4 = 4x or 1/4x)
}

// DefaultNoise reproduces the paper's weak cross-source correlation.
var DefaultNoise = DisambiguationNoise{Sigma: 1.25, PBlunder: 0.18, BlunderMul: 6}

// RegisterFromTruth derives and stores the S2 publication count for a
// researcher from their true publication count.
func (s *SemanticScholar) RegisterFromTruth(rng *rand.Rand, id string, truePubs int, noise DisambiguationNoise) error {
	if id == "" {
		return fmt.Errorf("scholar: empty researcher id")
	}
	if truePubs < 0 {
		return fmt.Errorf("scholar: negative publication count %d", truePubs)
	}
	n := float64(truePubs)
	if n < 1 {
		n = 1
	}
	n *= math.Exp(noise.Sigma * rng.NormFloat64())
	if noise.PBlunder > 0 && rng.Float64() < noise.PBlunder {
		if rng.Float64() < 0.5 {
			n *= noise.BlunderMul // merged with a namesake
		} else {
			n /= noise.BlunderMul // record split
		}
	}
	count := int(math.Round(n))
	if count < 1 {
		count = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[id] = count
	return nil
}

// PastPublications returns the S2 publication count for a researcher.
// Unlike the GS Directory, coverage is universal: an unregistered id
// reports ok = false only because the caller never generated it.
func (s *SemanticScholar) PastPublications(id string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.counts[id]
	return n, ok
}

// Len returns the number of registered records.
func (s *SemanticScholar) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.counts)
}

// IDs returns the registered researcher IDs, sorted. The slice is a copy
// owned by the caller.
func (s *SemanticScholar) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.counts))
	for id := range s.counts {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
