package snap

import (
	"math/bits"
	"slices"
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
// ID table.
//
// The decoder proves, as it reads, every invariant dataset.Validate
// checks, so a decoded corpus is not validated again. A reference is an
// index checked against the table, so it resolves by construction, and a
// strictly ascending table repeats no person. Each person's name, Google
// Scholar profile and Semantic Scholar count, each conference's ID,
// acceptance rate and year, and each paper's ID, conference, author count
// and citations are checked where they are read. A roster or author list
// repeats no person, which a bitmap over the person table proves. Two
// more bitmaps collect the people who author a paper and the people on a
// program committee; read in table order, which is ID order, they are the
// dataset's all-conference populations, built with no map and no sort.

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

// corpusDecoder decodes the persons, conferences and papers sections, in
// that order, into d.
type corpusDecoder struct {
	d *dataset.Dataset
	// ids is the sorted person ID table, which rosters and author lists
	// index.
	ids []string
	// seen is clear between reference lists; a list's references are set
	// in it while the list is proven repeat-free.
	seen query.Bitmap
	// authors and pcMembers collect every person who authors a paper or
	// sits on a program committee.
	authors, pcMembers query.Bitmap
	// refs is scratch for one roster's references.
	refs []int32
}

func newCorpusDecoder() *corpusDecoder {
	return &corpusDecoder{d: dataset.New()}
}

// repeat proves refs name no person twice, adding them to pop unless it
// is nil, and leaves seen clear: every bit set in seen belongs to refs, so
// zeroing the word of each reference zeroes them all. It returns the
// first person named twice, as an index into ids, or -1; a decode that
// finds one is abandoned, seen and pop with it.
func (c *corpusDecoder) repeat(refs []int32, pop query.Bitmap) int32 {
	for _, ref := range refs {
		if c.seen.Get(int(ref)) {
			return ref
		}
		c.seen.Set(int(ref))
		if pop != nil {
			pop.Set(int(ref))
		}
	}
	for _, ref := range refs {
		c.seen[ref>>6] = 0
	}
	return -1
}

// adoptPopulations hands d its all-conference populations, read off the
// authors and pcMembers bitmaps in table order, which is ID order.
func (c *corpusDecoder) adoptPopulations() {
	var union int
	for w, a := range c.authors {
		union += bits.OnesCount64(a | c.pcMembers[w])
	}
	authors := make([]dataset.PersonID, 0, ones(c.authors))
	pcMembers := make([]dataset.PersonID, 0, ones(c.pcMembers))
	both := make([]dataset.PersonID, 0, union)
	for w, a := range c.authors {
		p := c.pcMembers[w]
		for u := a | p; u != 0; u &= u - 1 {
			bit := u & -u
			id := dataset.PersonID(c.ids[w<<6+bits.TrailingZeros64(u)])
			both = append(both, id)
			if a&bit != 0 {
				authors = append(authors, id)
			}
			if p&bit != 0 {
				pcMembers = append(pcMembers, id)
			}
		}
	}
	c.d.AdoptPopulations(authors, pcMembers, both)
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

// persons decodes the persons section into d and keeps its sorted person
// ID table for the reference-index decoding of the other sections.
func (c *corpusDecoder) persons(data []byte, want int) error {
	dc := newDec(SectionPersons, data)
	n, err := dc.count("person count", want, 1)
	if err != nil {
		return err
	}
	var (
		ids, names, forenames, emails, affilVals, countryVals []string
		trueGenders, genders, methods, sectors                []int64
		gsPubs, gsH, gsI10, gsCit, s2Pubs                     []int64
		affilCodes, countryCodes                              []int32
		hasGS, hasS2                                          query.Bitmap
	)
	if ids, err = dc.strs("ids", n); err != nil {
		return err
	}
	// Strictly ascending, the table repeats no ID, and only its first can
	// be empty.
	if n > 0 && ids[0] == "" {
		return dc.err("ids", ErrCorrupt, "row 0 is empty")
	}
	for i := 1; i < n; i++ {
		if ids[i-1] >= ids[i] {
			return dc.err("ids", ErrCorrupt, "not strictly sorted at row %d", i)
		}
	}
	if names, err = dc.strs("names", n); err != nil {
		return err
	}
	for i, name := range names {
		if name == "" {
			return dc.err("names", ErrCorrupt, "row %d is empty", i)
		}
	}
	if forenames, err = dc.strs("forenames", n); err != nil {
		return err
	}
	if trueGenders, err = dc.enums("true_gender", n, int64(gender.Male)); err != nil {
		return err
	}
	if genders, err = dc.enums("gender", n, int64(gender.Male)); err != nil {
		return err
	}
	if methods, err = dc.enums("assign_method", n, int64(gender.MethodAutomated)); err != nil {
		return err
	}
	if emails, err = dc.strs("emails", n); err != nil {
		return err
	}
	if affilVals, err = dc.strs("affiliation dictionary", anyCount); err != nil {
		return err
	}
	if affilCodes, err = dc.codes("affiliation codes", n, len(affilVals)); err != nil {
		return err
	}
	if countryVals, err = dc.strs("country dictionary", anyCount); err != nil {
		return err
	}
	if countryCodes, err = dc.codes("country codes", n, len(countryVals)); err != nil {
		return err
	}
	if sectors, err = dc.enums("sectors", n, int64(affil.GOV)); err != nil {
		return err
	}
	// The profile columns hold one row per linked person: per set bit.
	if hasGS, err = dc.bitmap("has_gs", n); err != nil {
		return err
	}
	gsRows := ones(hasGS)
	if gsPubs, err = dc.ints("gs_pubs", gsRows); err != nil {
		return err
	}
	if gsH, err = dc.ints("gs_hindex", gsRows); err != nil {
		return err
	}
	if gsI10, err = dc.ints("gs_i10", gsRows); err != nil {
		return err
	}
	if gsCit, err = dc.ints("gs_citations", gsRows); err != nil {
		return err
	}
	if hasS2, err = dc.bitmap("has_s2", n); err != nil {
		return err
	}
	if s2Pubs, err = dc.ints("s2_pubs", ones(hasS2)); err != nil {
		return err
	}
	for i, v := range s2Pubs {
		if v < 1 {
			return dc.err("s2_pubs", ErrCorrupt, "linked row %d count %d < 1", i, v)
		}
	}
	if err := dc.finished(); err != nil {
		return err
	}

	gi, si := 0, 0
	// The dataset is freshly constructed and empty: presize the person map
	// for the decoded population and slab-allocate the structs (one
	// allocation instead of one per researcher). The ID table proved what
	// AddPerson checks, so each person goes straight into the map.
	d := c.d
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
			if err := p.GS.Validate(); err != nil {
				return dc.err("gs profile", ErrCorrupt, "row %d: %v", i, err)
			}
			gi++
		}
		if hasS2.Get(i) {
			p.HasS2 = true
			p.S2Pubs = int(s2Pubs[si])
			si++
		}
		d.Persons[p.ID] = p
	}
	c.ids = ids
	c.seen = query.NewBitmap(n)
	c.authors = query.NewBitmap(n)
	c.pcMembers = query.NewBitmap(n)
	return nil
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

// conferences decodes the conferences section into d.
func (c *corpusDecoder) conferences(data []byte, want int) error {
	dc := newDec(SectionConferences, data)
	n, err := dc.count("conference count", want, 1)
	if err != nil {
		return err
	}
	if n == 0 {
		return dc.err("conference count", ErrCorrupt, "no conferences")
	}
	for range n {
		conf := &dataset.Conference{}
		dc.in.conf = ""
		var sid string
		if sid, err = dc.str("conference id"); err != nil {
			return err
		}
		conf.ID = dataset.ConfID(sid)
		dc.in.conf = sid
		if conf.Name, err = dc.str("name"); err != nil {
			return err
		}
		year, err := dc.varint("year")
		if err != nil {
			return err
		}
		if !dataset.PlausibleYear(int(year)) {
			return dc.err("year", ErrCorrupt, "%d outside [1980, 2100]", year)
		}
		conf.Year = int(year)
		sec, err := dc.varint("date")
		if err != nil {
			return err
		}
		conf.Date = time.Unix(sec, 0).UTC()
		if conf.CountryCode, err = dc.str("country"); err != nil {
			return err
		}
		submitted, err := dc.varint("submitted")
		if err != nil {
			return err
		}
		conf.Submitted = int(submitted)
		if conf.AcceptanceRate, err = dc.f64("acceptance_rate"); err != nil {
			return err
		}
		if !dataset.ValidAcceptanceRate(conf.AcceptanceRate) {
			return dc.err("acceptance_rate", ErrCorrupt, "%g outside (0, 1]", conf.AcceptanceRate)
		}
		if conf.Subfield, err = dc.str("subfield"); err != nil {
			return err
		}
		if conf.DoubleBlind, err = dc.bool("double_blind"); err != nil {
			return err
		}
		if conf.DiversityChair, err = dc.bool("diversity_chair"); err != nil {
			return err
		}
		if conf.CodeOfConduct, err = dc.bool("code_of_conduct"); err != nil {
			return err
		}
		if conf.Childcare, err = dc.bool("childcare"); err != nil {
			return err
		}
		if conf.WomenAttendance, err = dc.f64("women_attendance"); err != nil {
			return err
		}
		for ri, roster := range []*[]dataset.PersonID{&conf.PCChairs, &conf.PCMembers, &conf.Keynotes, &conf.Panelists, &conf.SessionChairs} {
			var pop query.Bitmap
			if roster == &conf.PCMembers {
				pop = c.pcMembers
			}
			if *roster, err = c.roster(dc, rosterFields[ri], pop); err != nil {
				return err
			}
		}
		// AddConference refuses an empty or repeated ID, and only those.
		if err := c.d.AddConference(conf); err != nil {
			return dc.err("conference id", ErrCorrupt, "%v", err)
		}
	}
	return dc.finished()
}

// roster reads a person-reference list: a count, then indexes into the
// sorted person ID table, each checked against its bounds, none repeated.
// The people are added to pop unless it is nil.
func (c *corpusDecoder) roster(dc *dec, what string, pop query.Bitmap) ([]dataset.PersonID, error) {
	n, err := dc.count(what, anyCount, 1)
	if err != nil || n == 0 {
		return nil, err
	}
	refs := c.refs[:0]
	for range n {
		ref, err := dc.uvarint(what)
		if err != nil {
			return nil, err
		}
		if ref >= uint64(len(c.ids)) {
			return nil, dc.err(what, ErrCorrupt, "person index %d out of range (%d persons)", ref, len(c.ids))
		}
		refs = append(refs, int32(ref))
	}
	c.refs = refs
	if r := c.repeat(refs, pop); r >= 0 {
		return nil, dc.err(what, ErrCorrupt, "repeats person %q", c.ids[r])
	}
	out := make([]dataset.PersonID, n)
	for i, ref := range refs {
		out[i] = dataset.PersonID(c.ids[ref])
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

// papers decodes the papers section into d.
func (c *corpusDecoder) papers(data []byte, want int) error {
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
	if i := slices.Index(paperIDs, ""); i >= 0 {
		return dc.err("ids", ErrCorrupt, "row %d is empty", i)
	}
	if id, ok := repeated(paperIDs); ok {
		return dc.err("ids", ErrCorrupt, "repeats paper %q", id)
	}
	if titles, err = dc.strs("titles", n); err != nil {
		return err
	}
	if confVals, err = dc.strs("conference dictionary", anyCount); err != nil {
		return err
	}
	for _, v := range confVals {
		if _, ok := c.d.Conference(dataset.ConfID(v)); !ok {
			return dc.err("conference dictionary", ErrCorrupt, "%q is not a decoded conference", v)
		}
	}
	if confCodes, err = dc.codes("conference codes", n, len(confVals)); err != nil {
		return err
	}
	if citations, err = dc.ints("citations36", n); err != nil {
		return err
	}
	for i, v := range citations {
		if v < 0 {
			return dc.err("citations36", ErrCorrupt, "row %d is negative (%d)", i, v)
		}
	}
	if hpc, err = dc.bitmap("hpc_topic", n); err != nil {
		return err
	}
	if counts, err = dc.ints("author counts", n); err != nil {
		return err
	}
	total := 0
	for i, k := range counts {
		if k < 1 || k > int64(len(c.ids)) {
			return dc.err("author counts", ErrCorrupt, "row %d count %d outside [1, %d]", i, k, len(c.ids))
		}
		total += int(k)
	}
	// One author ref per author slot: the sum of the counts.
	if refs, err = dc.codes("author refs", total, len(c.ids)); err != nil {
		return err
	}
	off := 0
	for i, k := range counts {
		if r := c.repeat(refs[off:off+int(k)], c.authors); r >= 0 {
			return dc.err("author refs", ErrCorrupt, "paper %q repeats person %q", paperIDs[i], c.ids[r])
		}
		off += int(k)
	}
	if err := dc.finished(); err != nil {
		return err
	}

	// Slab-allocate the paper structs and the flat author-list arena (two
	// allocations instead of one per paper plus one per author list).
	papers := make([]dataset.Paper, n)
	authors := make([]dataset.PersonID, total)
	for i, ref := range refs {
		authors[i] = dataset.PersonID(c.ids[ref])
	}
	off = 0
	for i := range papers {
		p := &papers[i]
		k := int(counts[i])
		*p = dataset.Paper{
			ID:          dataset.PaperID(paperIDs[i]),
			Conf:        dataset.ConfID(confVals[confCodes[i]]),
			Title:       titles[i],
			Authors:     authors[off : off+k : off+k],
			HPCTopic:    hpc.Get(i),
			Citations36: int(citations[i]),
		}
		off += k
		// AddPaper refuses an empty ID or an unknown conference, both
		// proven above.
		if err := c.d.AddPaper(p); err != nil {
			return dc.err("record", ErrCorrupt, "%v", err)
		}
	}
	return nil
}
