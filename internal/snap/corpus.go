package snap

import (
	"math/bits"
	"sort"
	"time"

	"repro/internal/affil"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/query"
	"repro/internal/scholar"
)

// The corpus codec serializes the three entity tables columnar-style:
// high-cardinality strings (IDs, names, titles, emails) raw, repetitive
// strings (affiliations, countries, conference IDs) dictionary-encoded,
// integers as zigzag varints, and presence flags (Google Scholar /
// Semantic Scholar linkage, HPC topic tags) as bitmaps with the dependent
// columns packed down to the present rows only. Person references in
// rosters and author lists are encoded as indexes into the sorted person
// ID table — dataset.Validate guarantees they resolve.

// sortedPersonIDs returns the corpus person IDs sorted ascending — the
// canonical row order of the persons section and the index space person
// references encode against.
func sortedPersonIDs(d *dataset.Dataset) []string {
	ids := make([]string, 0, len(d.Persons))
	for id := range d.Persons {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	return ids
}

// --- persons ----------------------------------------------------------

func encodePersons(d *dataset.Dataset, ids []string) []byte {
	e := &enc{}
	n := len(ids)
	e.uvarint(uint64(n))
	e.strCol(ids)

	names := make([]string, n)
	forenames := make([]string, n)
	emails := make([]string, n)
	trueGenders := make([]int64, n)
	genders := make([]int64, n)
	methods := make([]int64, n)
	sectors := make([]int64, n)
	affilDict := newDictBuilder()
	affilCodes := make([]int32, n)
	countryDict := newDictBuilder()
	countryCodes := make([]int32, n)
	hasGS := query.NewBitmap(n)
	hasS2 := query.NewBitmap(n)
	var gsPubs, gsH, gsI10, gsCit, s2Pubs []int64

	for i, sid := range ids {
		p := d.Persons[dataset.PersonID(sid)]
		names[i] = p.Name
		forenames[i] = p.Forename
		emails[i] = p.Email
		trueGenders[i] = int64(p.TrueGender)
		genders[i] = int64(p.Gender)
		methods[i] = int64(p.AssignMethod)
		sectors[i] = int64(p.Sector)
		affilCodes[i] = affilDict.code(p.Affiliation)
		countryCodes[i] = countryDict.code(p.CountryCode)
		if p.HasGSProfile {
			hasGS.Set(i)
			gsPubs = append(gsPubs, int64(p.GS.Publications))
			gsH = append(gsH, int64(p.GS.HIndex))
			gsI10 = append(gsI10, int64(p.GS.I10Index))
			gsCit = append(gsCit, int64(p.GS.Citations))
		}
		if p.HasS2 {
			hasS2.Set(i)
			s2Pubs = append(s2Pubs, int64(p.S2Pubs))
		}
	}

	e.strCol(names)
	e.strCol(forenames)
	e.intCol(trueGenders)
	e.intCol(genders)
	e.intCol(methods)
	e.strCol(emails)
	e.strDict(affilDict.vals)
	e.codeCol(affilCodes)
	e.strDict(countryDict.vals)
	e.codeCol(countryCodes)
	e.intCol(sectors)
	e.words(hasGS)
	e.intCol(gsPubs)
	e.intCol(gsH)
	e.intCol(gsI10)
	e.intCol(gsCit)
	e.words(hasS2)
	e.intCol(s2Pubs)
	return e.bytesOut()
}

// decodePersons decodes the persons section into d, returning the sorted
// person ID table for the reference-index decoding of the other sections.
func decodePersons(data []byte, want int, d *dataset.Dataset) ([]string, error) {
	dc := newDec(SectionPersons, data)
	n, err := dc.count("person count", want, 1)
	if err != nil {
		return nil, err
	}
	var (
		ids, names, forenames, emails, affilVals, countryVals []string
		trueGenders, genders, methods, sectors                []int64
		gsPubs, gsH, gsI10, gsCit, s2Pubs                     []int64
		affilCodes, countryCodes                              []int32
		hasGS, hasS2                                          query.Bitmap
	)
	if ids, err = dc.strs("ids", n); err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if ids[i-1] >= ids[i] {
			return nil, dc.err("ids", ErrCorrupt, "not strictly sorted at row %d", i)
		}
	}
	if names, err = dc.strs("names", n); err != nil {
		return nil, err
	}
	if forenames, err = dc.strs("forenames", n); err != nil {
		return nil, err
	}
	if trueGenders, err = dc.enums("true_gender", n, int64(gender.Male)); err != nil {
		return nil, err
	}
	if genders, err = dc.enums("gender", n, int64(gender.Male)); err != nil {
		return nil, err
	}
	if methods, err = dc.enums("assign_method", n, int64(gender.MethodAutomated)); err != nil {
		return nil, err
	}
	if emails, err = dc.strs("emails", n); err != nil {
		return nil, err
	}
	if affilVals, err = dc.strs("affiliation dictionary", anyCount); err != nil {
		return nil, err
	}
	if affilCodes, err = dc.codes("affiliation codes", n, len(affilVals)); err != nil {
		return nil, err
	}
	if countryVals, err = dc.strs("country dictionary", anyCount); err != nil {
		return nil, err
	}
	if countryCodes, err = dc.codes("country codes", n, len(countryVals)); err != nil {
		return nil, err
	}
	if sectors, err = dc.enums("sectors", n, int64(affil.GOV)); err != nil {
		return nil, err
	}
	// The profile columns hold one row per linked person: per set bit.
	if hasGS, err = dc.bitmap("has_gs", n); err != nil {
		return nil, err
	}
	gsRows := ones(hasGS)
	if gsPubs, err = dc.ints("gs_pubs", gsRows); err != nil {
		return nil, err
	}
	if gsH, err = dc.ints("gs_hindex", gsRows); err != nil {
		return nil, err
	}
	if gsI10, err = dc.ints("gs_i10", gsRows); err != nil {
		return nil, err
	}
	if gsCit, err = dc.ints("gs_citations", gsRows); err != nil {
		return nil, err
	}
	if hasS2, err = dc.bitmap("has_s2", n); err != nil {
		return nil, err
	}
	if s2Pubs, err = dc.ints("s2_pubs", ones(hasS2)); err != nil {
		return nil, err
	}
	if err := dc.finished(); err != nil {
		return nil, err
	}

	gi, si := 0, 0
	// The dataset is freshly constructed and empty: presize the person map
	// for the decoded population and slab-allocate the structs (one
	// allocation instead of one per researcher).
	d.Persons = make(map[dataset.PersonID]*dataset.Person, n)
	people := make([]dataset.Person, n)
	for i, sid := range ids {
		p := &people[i]
		*p = dataset.Person{
			ID:           dataset.PersonID(sid),
			Name:         names[i],
			Forename:     forenames[i],
			TrueGender:   gender.Gender(trueGenders[i]),
			Gender:       gender.Gender(genders[i]),
			AssignMethod: gender.Method(methods[i]),
			Email:        emails[i],
			Affiliation:  affilVals[affilCodes[i]],
			CountryCode:  countryVals[countryCodes[i]],
			Sector:       affil.Sector(sectors[i]),
		}
		if hasGS.Get(i) {
			p.HasGSProfile = true
			p.GS = scholar.Profile{
				Publications: int(gsPubs[gi]),
				HIndex:       int(gsH[gi]),
				I10Index:     int(gsI10[gi]),
				Citations:    int(gsCit[gi]),
			}
			gi++
		}
		if hasS2.Get(i) {
			p.HasS2 = true
			p.S2Pubs = int(s2Pubs[si])
			si++
		}
		if err := d.AddPerson(p); err != nil {
			return nil, dc.err("record", ErrCorrupt, "%v", err)
		}
	}
	return ids, nil
}

// ones counts a bitmap's set bits.
func ones(b query.Bitmap) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// dictBuilder interns strings in first-appearance order at encode time.
type dictBuilder struct {
	vals []string
	idx  map[string]int32
}

func newDictBuilder() *dictBuilder {
	return &dictBuilder{idx: make(map[string]int32)}
}

func (b *dictBuilder) code(s string) int32 {
	if c, ok := b.idx[s]; ok {
		return c
	}
	c := int32(len(b.vals))
	b.vals = append(b.vals, s)
	b.idx[s] = c
	return c
}

// --- conferences ------------------------------------------------------

func encodeConferences(d *dataset.Dataset, personIdx map[string]int) []byte {
	e := &enc{}
	e.uvarint(uint64(len(d.Conferences)))
	for _, c := range d.Conferences {
		e.str(string(c.ID))
		e.str(c.Name)
		e.varint(int64(c.Year))
		e.varint(c.Date.Unix())
		e.str(c.CountryCode)
		e.varint(int64(c.Submitted))
		e.f64(c.AcceptanceRate)
		e.str(c.Subfield)
		e.bool(c.DoubleBlind)
		e.bool(c.DiversityChair)
		e.bool(c.CodeOfConduct)
		e.bool(c.Childcare)
		e.f64(c.WomenAttendance)
		for _, roster := range [][]dataset.PersonID{
			c.PCChairs, c.PCMembers, c.Keynotes, c.Panelists, c.SessionChairs,
		} {
			e.uvarint(uint64(len(roster)))
			for _, id := range roster {
				e.uvarint(uint64(personIdx[string(id)]))
			}
		}
	}
	return e.bytesOut()
}

// rosterFields name a conference's rosters in encoding order.
var rosterFields = [5]string{"pc_chairs roster", "pc_members roster", "keynotes roster", "panelists roster", "session_chairs roster"}

func decodeConferences(data []byte, want int, ids []string, d *dataset.Dataset) error {
	dc := newDec(SectionConferences, data)
	n, err := dc.count("conference count", want, 1)
	if err != nil {
		return err
	}
	for range n {
		c := &dataset.Conference{}
		dc.in.conf = ""
		var sid string
		if sid, err = dc.str("conference id"); err != nil {
			return err
		}
		c.ID = dataset.ConfID(sid)
		dc.in.conf = sid
		if c.Name, err = dc.str("name"); err != nil {
			return err
		}
		year, err := dc.varint("year")
		if err != nil {
			return err
		}
		c.Year = int(year)
		sec, err := dc.varint("date")
		if err != nil {
			return err
		}
		c.Date = time.Unix(sec, 0).UTC()
		if c.CountryCode, err = dc.str("country"); err != nil {
			return err
		}
		submitted, err := dc.varint("submitted")
		if err != nil {
			return err
		}
		c.Submitted = int(submitted)
		if c.AcceptanceRate, err = dc.f64("acceptance_rate"); err != nil {
			return err
		}
		if c.Subfield, err = dc.str("subfield"); err != nil {
			return err
		}
		if c.DoubleBlind, err = dc.bool("double_blind"); err != nil {
			return err
		}
		if c.DiversityChair, err = dc.bool("diversity_chair"); err != nil {
			return err
		}
		if c.CodeOfConduct, err = dc.bool("code_of_conduct"); err != nil {
			return err
		}
		if c.Childcare, err = dc.bool("childcare"); err != nil {
			return err
		}
		if c.WomenAttendance, err = dc.f64("women_attendance"); err != nil {
			return err
		}
		for ri, roster := range []*[]dataset.PersonID{&c.PCChairs, &c.PCMembers, &c.Keynotes, &c.Panelists, &c.SessionChairs} {
			if *roster, err = decodePersonRefs(dc, rosterFields[ri], ids); err != nil {
				return err
			}
		}
		if err := d.AddConference(c); err != nil {
			return dc.err("record", ErrCorrupt, "%v", err)
		}
	}
	return dc.finished()
}

// decodePersonRefs reads a person-reference list: a count then indexes
// into the sorted person ID table, each validated against its bounds.
func decodePersonRefs(dc *dec, what string, ids []string) ([]dataset.PersonID, error) {
	n, err := dc.count(what, anyCount, 1)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]dataset.PersonID, n)
	for i := range out {
		ref, err := dc.uvarint(what)
		if err != nil {
			return nil, err
		}
		if ref >= uint64(len(ids)) {
			return nil, dc.err(what, ErrCorrupt, "person index %d out of range (%d persons)", ref, len(ids))
		}
		out[i] = dataset.PersonID(ids[ref])
	}
	return out, nil
}

// --- papers -----------------------------------------------------------

func encodePapers(d *dataset.Dataset, personIdx map[string]int) []byte {
	e := &enc{}
	n := len(d.Papers)
	e.uvarint(uint64(n))

	paperIDs := make([]string, n)
	titles := make([]string, n)
	confDict := newDictBuilder()
	confCodes := make([]int32, n)
	citations := make([]int64, n)
	hpc := query.NewBitmap(n)
	counts := make([]int64, n)
	var refs []int32
	for i, p := range d.Papers {
		paperIDs[i] = string(p.ID)
		titles[i] = p.Title
		confCodes[i] = confDict.code(string(p.Conf))
		citations[i] = int64(p.Citations36)
		if p.HPCTopic {
			hpc.Set(i)
		}
		counts[i] = int64(len(p.Authors))
		for _, a := range p.Authors {
			refs = append(refs, int32(personIdx[string(a)]))
		}
	}
	e.strCol(paperIDs)
	e.strCol(titles)
	e.strDict(confDict.vals)
	e.codeCol(confCodes)
	e.intCol(citations)
	e.words(hpc)
	e.intCol(counts)
	e.codeCol(refs)
	return e.bytesOut()
}

func decodePapers(data []byte, want int, ids []string, d *dataset.Dataset) error {
	dc := newDec(SectionPapers, data)
	n, err := dc.count("paper count", want, 1)
	if err != nil {
		return err
	}
	var (
		paperIDs, titles, confVals []string
		confCodes, refs            []int32
		citations, counts          []int64
		hpc                        query.Bitmap
	)
	if paperIDs, err = dc.strs("ids", n); err != nil {
		return err
	}
	if titles, err = dc.strs("titles", n); err != nil {
		return err
	}
	if confVals, err = dc.strs("conference dictionary", anyCount); err != nil {
		return err
	}
	if confCodes, err = dc.codes("conference codes", n, len(confVals)); err != nil {
		return err
	}
	if citations, err = dc.ints("citations36", n); err != nil {
		return err
	}
	if hpc, err = dc.bitmap("hpc_topic", n); err != nil {
		return err
	}
	if counts, err = dc.ints("author counts", n); err != nil {
		return err
	}
	total := 0
	for i, c := range counts {
		if c < 0 || c > int64(len(ids)) {
			return dc.err("author counts", ErrCorrupt, "row %d count %d outside [0, %d]", i, c, len(ids))
		}
		total += int(c)
	}
	// One author ref per author slot: the sum of the counts.
	if refs, err = dc.codes("author refs", total, len(ids)); err != nil {
		return err
	}
	if err := dc.finished(); err != nil {
		return err
	}

	// Slab-allocate the paper structs and the flat author-list arena (two
	// allocations instead of one per paper plus one per author list).
	papers := make([]dataset.Paper, n)
	authors := make([]dataset.PersonID, total)
	off := 0
	for i := 0; i < n; i++ {
		p := &papers[i]
		*p = dataset.Paper{
			ID:          dataset.PaperID(paperIDs[i]),
			Conf:        dataset.ConfID(confVals[confCodes[i]]),
			Title:       titles[i],
			HPCTopic:    hpc.Get(i),
			Citations36: int(citations[i]),
		}
		if c := int(counts[i]); c > 0 {
			p.Authors = authors[off : off+c : off+c]
			for j := 0; j < c; j++ {
				p.Authors[j] = dataset.PersonID(ids[refs[off+j]])
			}
			off += c
		}
		if err := d.AddPaper(p); err != nil {
			return dc.err("record", ErrCorrupt, "%v", err)
		}
	}
	return nil
}
