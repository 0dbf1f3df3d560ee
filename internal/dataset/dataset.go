package dataset

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/gender"
)

// Dataset is the complete corpus: conferences, their papers, and every
// person holding any role. It maintains lookup indexes and memoizes the
// all-conference unique populations (UniqueAuthors, UniqueRoleHolders of
// PC members, UniqueAuthorsAndPC). AddConference and AddPaper keep both
// current. A caller that mutates the exported slices, a conference's role
// rosters or a paper's author list after adding it must call Reindex
// before the next read, which rebuilds the indexes and drops the memo.
//
// Reads may run concurrently once mutation has finished; the memo is
// built on first use and published atomically.
type Dataset struct {
	Conferences []*Conference
	Papers      []*Paper
	Persons     map[PersonID]*Person

	papersByConf map[ConfID][]*Paper
	confByID     map[ConfID]*Conference

	populations atomic.Pointer[populations]
}

// populations is the memoized set of all-conference unique populations,
// each sorted by ID. The slices are never handed out directly.
type populations struct {
	authors      []PersonID
	pcMembers    []PersonID
	authorsAndPC []PersonID
}

// New returns an empty dataset ready for population.
func New() *Dataset {
	return &Dataset{
		Persons:      make(map[PersonID]*Person),
		papersByConf: make(map[ConfID][]*Paper),
		confByID:     make(map[ConfID]*Conference),
	}
}

// AddConference registers a conference. Duplicate IDs are an error.
func (d *Dataset) AddConference(c *Conference) error {
	if c == nil || c.ID == "" {
		return fmt.Errorf("dataset: nil or unidentified conference")
	}
	if _, dup := d.confByID[c.ID]; dup {
		return fmt.Errorf("dataset: duplicate conference %q", c.ID)
	}
	d.Conferences = append(d.Conferences, c)
	d.confByID[c.ID] = c
	d.populations.Store(nil)
	return nil
}

// AddPaper registers a paper under its conference.
func (d *Dataset) AddPaper(p *Paper) error {
	if p == nil || p.ID == "" {
		return fmt.Errorf("dataset: nil or unidentified paper")
	}
	if _, ok := d.confByID[p.Conf]; !ok {
		return fmt.Errorf("dataset: paper %q references unknown conference %q", p.ID, p.Conf)
	}
	d.Papers = append(d.Papers, p)
	d.papersByConf[p.Conf] = append(d.papersByConf[p.Conf], p)
	d.populations.Store(nil)
	return nil
}

// AddPerson registers a researcher. Duplicate IDs are an error.
func (d *Dataset) AddPerson(p *Person) error {
	if p == nil || p.ID == "" {
		return fmt.Errorf("dataset: nil or unidentified person")
	}
	if _, dup := d.Persons[p.ID]; dup {
		return fmt.Errorf("dataset: duplicate person %q", p.ID)
	}
	d.Persons[p.ID] = p
	return nil
}

// Reindex rebuilds the lookup indexes and drops the memoized unique
// populations. It is required after direct mutation of the exported
// slices, a conference's role rosters or a paper's author list (the CSV
// loader uses this).
func (d *Dataset) Reindex() {
	d.populations.Store(nil)
	d.papersByConf = make(map[ConfID][]*Paper, len(d.Conferences))
	d.confByID = make(map[ConfID]*Conference, len(d.Conferences))
	for _, c := range d.Conferences {
		d.confByID[c.ID] = c
	}
	for _, p := range d.Papers {
		d.papersByConf[p.Conf] = append(d.papersByConf[p.Conf], p)
	}
}

// Conference returns a conference by ID.
func (d *Dataset) Conference(id ConfID) (*Conference, bool) {
	c, ok := d.confByID[id]
	return c, ok
}

// PapersOf returns the papers of one conference (in insertion order).
func (d *Dataset) PapersOf(id ConfID) []*Paper { return d.papersByConf[id] }

// Person returns a researcher by ID.
func (d *Dataset) Person(id PersonID) (*Person, bool) {
	p, ok := d.Persons[id]
	return p, ok
}

// AuthorSlots returns every author occurrence across the given conferences
// (all conferences if none specified) with repetition: a person authoring
// three papers appears three times. This is the population behind the
// paper's "2236 authors" phrasing.
func (d *Dataset) AuthorSlots(confs ...ConfID) []PersonID {
	var out []PersonID
	for _, p := range d.papersIn(confs) {
		out = append(out, p.Authors...)
	}
	return out
}

// UniqueAuthors returns the deduplicated author set for the given
// conferences (all if none specified), sorted by ID for determinism. This
// is the population behind "1885 unique coauthors". The all-conference
// set is memoized; the caller owns the returned slice either way.
func (d *Dataset) UniqueAuthors(confs ...ConfID) []PersonID {
	if len(confs) == 0 {
		return slices.Clone(d.memo().authors)
	}
	return d.uniqueAuthors(confs)
}

func (d *Dataset) uniqueAuthors(confs []ConfID) []PersonID {
	seen := make(map[PersonID]bool)
	for _, p := range d.papersIn(confs) {
		for _, a := range p.Authors {
			seen[a] = true
		}
	}
	return sortedIDs(seen)
}

// LeadAuthors returns the first author of each paper in the given
// conferences (all if none specified), with repetition across papers.
func (d *Dataset) LeadAuthors(confs ...ConfID) []PersonID {
	var out []PersonID
	for _, p := range d.papersIn(confs) {
		if id := p.Lead(); id != "" {
			out = append(out, id)
		}
	}
	return out
}

// LastAuthors returns the last author of each paper in the given
// conferences (all if none specified), with repetition across papers.
func (d *Dataset) LastAuthors(confs ...ConfID) []PersonID {
	var out []PersonID
	for _, p := range d.papersIn(confs) {
		if id := p.Last(); id != "" {
			out = append(out, id)
		}
	}
	return out
}

// RoleSlots returns every occurrence of a non-author role across the given
// conferences with repetition (the paper's "1220 total PC members (with
// repeats)"). For RoleAuthor it defers to AuthorSlots.
func (d *Dataset) RoleSlots(r Role, confs ...ConfID) []PersonID {
	if r == RoleAuthor {
		return d.AuthorSlots(confs...)
	}
	var out []PersonID
	for _, c := range d.confsIn(confs) {
		out = append(out, c.RoleHolders(r)...)
	}
	return out
}

// UniqueRoleHolders deduplicates RoleSlots (the paper's "908 total" unique
// PC members), sorted by ID. The all-conference PC member set is
// memoized; the caller owns the returned slice either way.
func (d *Dataset) UniqueRoleHolders(r Role, confs ...ConfID) []PersonID {
	if len(confs) == 0 && r == RolePCMember {
		return slices.Clone(d.memo().pcMembers)
	}
	return d.uniqueRoleHolders(r, confs)
}

func (d *Dataset) uniqueRoleHolders(r Role, confs []ConfID) []PersonID {
	seen := make(map[PersonID]bool)
	for _, id := range d.RoleSlots(r, confs...) {
		seen[id] = true
	}
	return sortedIDs(seen)
}

// UniqueAuthorsAndPC returns the union of unique authors and unique PC
// members — the "3456 authors and PC members" demographic population of §5.
// The set is memoized; the caller owns the returned slice.
func (d *Dataset) UniqueAuthorsAndPC() []PersonID {
	return slices.Clone(d.memo().authorsAndPC)
}

// memo returns the all-conference unique populations, building them on
// first use. Concurrent first callers may each build a copy; they are
// equal, and whichever is stored last serves later reads.
func (d *Dataset) memo() *populations {
	if m := d.populations.Load(); m != nil {
		return m
	}
	m := &populations{
		authors:   d.uniqueAuthors(nil),
		pcMembers: d.uniqueRoleHolders(RolePCMember, nil),
	}
	m.authorsAndPC = mergeSorted(m.authors, m.pcMembers)
	d.populations.Store(m)
	return m
}

// AdoptPopulations installs the all-conference unique populations of a
// corpus whose builder has proven them: the authors, the PC members and
// their union, each sorted by ID, duplicate-free and equal to what
// UniqueAuthors, UniqueRoleHolders(RolePCMember) and UniqueAuthorsAndPC
// would build. The snapshot decoder, which builds them from bitmaps over
// its sorted person table, is the one caller. They stand in for the memo,
// so the next AddConference, AddPaper or Reindex drops them and the next
// read rebuilds them from the corpus. The dataset keeps the slices.
func (d *Dataset) AdoptPopulations(authors, pcMembers, authorsAndPC []PersonID) {
	d.populations.Store(&populations{authors: authors, pcMembers: pcMembers, authorsAndPC: authorsAndPC})
}

// mergeSorted returns the sorted union of two sorted, duplicate-free ID
// lists in one linear pass.
func mergeSorted(a, b []PersonID) []PersonID {
	out := make([]PersonID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// HPCPapers returns the manually HPC-tagged subset (§4.1) across the given
// conferences (all if none specified).
func (d *Dataset) HPCPapers(confs ...ConfID) []*Paper {
	var out []*Paper
	for _, p := range d.papersIn(confs) {
		if p.HPCTopic {
			out = append(out, p)
		}
	}
	return out
}

// GenderCount tallies perceived genders over a slot list (repeats kept —
// callers choose unique vs slot populations).
type GenderCount struct {
	Women   int
	Men     int
	Unknown int
}

// Known returns the gender-assigned population size.
func (g GenderCount) Known() int { return g.Women + g.Men }

// Total returns the full population size including unknowns.
func (g GenderCount) Total() int { return g.Women + g.Men + g.Unknown }

// FemaleRatio returns Women / Known — the paper's FAR when applied to
// author slots. Returns 0 when no gender is known.
func (g GenderCount) FemaleRatio() float64 {
	if g.Known() == 0 {
		return 0
	}
	return float64(g.Women) / float64(g.Known())
}

// CountGenders tallies the perceived genders of a slot list. Unknown
// persons (dangling IDs) count as gender-unknown, matching the paper's
// exclusion convention.
func (d *Dataset) CountGenders(ids []PersonID) GenderCount {
	var gc GenderCount
	for _, id := range ids {
		p, ok := d.Persons[id]
		if !ok {
			gc.Unknown++
			continue
		}
		switch p.Gender {
		case gender.Female:
			gc.Women++
		case gender.Male:
			gc.Men++
		default:
			gc.Unknown++
		}
	}
	return gc
}

func (d *Dataset) papersIn(confs []ConfID) []*Paper {
	if len(confs) == 0 {
		return d.Papers
	}
	var out []*Paper
	for _, id := range confs {
		out = append(out, d.papersByConf[id]...)
	}
	return out
}

func (d *Dataset) confsIn(confs []ConfID) []*Conference {
	if len(confs) == 0 {
		return d.Conferences
	}
	var out []*Conference
	for _, id := range confs {
		if c, ok := d.confByID[id]; ok {
			out = append(out, c)
		}
	}
	return out
}

func sortedIDs(set map[PersonID]bool) []PersonID {
	out := make([]PersonID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
