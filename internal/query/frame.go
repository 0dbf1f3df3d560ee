package query

import (
	"sort"
	"strings"

	"repro/internal/affil"
	"repro/internal/cite"
	"repro/internal/countries"
	"repro/internal/dataset"
	"repro/internal/gender"
)

// Frame is one columnar table: a fixed set of typed columns over the same
// row count. Row order is deterministic per dataset (construction iterates
// only ordered slices and sorted ID lists), which makes the engine's
// default "first appearance" group order meaningful.
type Frame struct {
	Name    string
	NumRows int
	cols    []*Column
	byName  map[string]*Column
}

// Column returns the named column, or ok=false.
func (f *Frame) Column(name string) (*Column, bool) {
	c, ok := f.byName[name]
	return c, ok
}

// ColumnNames lists the frame's columns in schema order.
func (f *Frame) ColumnNames() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name
	}
	return out
}

// Columns returns the frame's columns in schema order. The snapshot
// codec (internal/snap) iterates them to serialize a pre-built FrameSet;
// callers must treat the columns as read-only.
func (f *Frame) Columns() []*Column { return f.cols }

// AssembleFrame reconstitutes a frame from deserialized columns. It is
// the inverse accessor pair of Columns/NumRows for the snapshot codec;
// the caller is responsible for column/row-count consistency (the
// snapshot reader validates every structural invariant before calling).
func AssembleFrame(name string, numRows int, cols []*Column) *Frame {
	return newFrame(name, numRows, cols)
}

// AssembleFrameSet reconstitutes a FrameSet from deserialized frames, in
// the given order (frame order fixes Names()).
func AssembleFrameSet(frames []*Frame) *FrameSet {
	return &FrameSet{frames: frames}
}

func newFrame(name string, n int, cols []*Column) *Frame {
	f := &Frame{Name: name, NumRows: n, cols: cols, byName: make(map[string]*Column, len(cols))}
	for _, c := range cols {
		f.byName[c.Name] = c
	}
	return f
}

// Frame names exposed by a FrameSet.
const (
	FrameSlots     = "slots"     // one row per role slot, with repeats
	FramePeople    = "people"    // one row per unique researcher
	FrameMembers   = "members"   // one row per (researcher, author/PC population)
	FramePapers    = "papers"    // one row per paper
	FrameCohorts   = "cohorts"   // one row per (conference, unique participant)
	FrameCitations = "citations" // one row per directed citation edge
)

// FrameSet is the columnar flattening of one corpus: the six frames every
// query runs over. Construction is deterministic — the same dataset always
// yields byte-identical frames — and every frame's row order is
// append-only in the conference dimension, so AppendConference can grow a
// built set in place to exactly the frames a full rebuild would produce.
type FrameSet struct {
	frames []*Frame
}

// Frame returns a frame by name, or ok=false.
func (fs *FrameSet) Frame(name string) (*Frame, bool) {
	for _, f := range fs.frames {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// Names lists the available frame names in fixed order.
func (fs *FrameSet) Names() []string {
	out := make([]string, len(fs.frames))
	for i, f := range fs.frames {
		out[i] = f.Name
	}
	return out
}

// Schema describes one frame's columns as "name:type" pairs, for error
// messages and the CLI.
func (fs *FrameSet) Schema(name string) []string {
	f, ok := fs.Frame(name)
	if !ok {
		return nil
	}
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name + ":" + c.Type.String()
	}
	return out
}

// NewFrameSet flattens a corpus into columnar frames. Dictionaries that
// carry a presentation order (conference, role, population) are pre-seeded
// so "appearance"-mode sorting reproduces the paper's table order.
func NewFrameSet(d *dataset.Dataset) *FrameSet {
	return &FrameSet{frames: []*Frame{
		buildSlots(d),
		buildPeople(d),
		buildMembers(d),
		buildPapers(d),
		buildCohorts(d),
		buildCitations(d),
	}}
}

// confDicts returns dictionaries for conference IDs and names pre-seeded in
// Table 1 (dataset) order.
func confDicts(d *dataset.Dataset) (ids, names *Dict) {
	ids, names = NewDict(), NewDict()
	for _, c := range d.Conferences {
		ids.Code(string(c.ID))
		names.Code(c.Name)
	}
	return ids, names
}

func roleDict() *Dict {
	seed := make([]string, 0, 6)
	for _, r := range dataset.Roles() {
		seed = append(seed, r.String())
	}
	return NewDict(seed...)
}

// personSinks bundles the demographic sinks shared by several frames. It
// is expressed over colSink so the same emission code drives both a fresh
// build (colBuilder) and in-place appends (colAppender).
type personSinks struct {
	gender, known, female, country, region, sector colSink
}

// add appends one person's demographics; a nil person (dangling ID) writes
// gender "unknown" and null demographics, matching the analyses' exclusion
// convention.
func (ps personSinks) add(p *dataset.Person) {
	if p == nil {
		ps.gender.addStr("unknown")
		ps.known.addBool(false)
		ps.female.addBool(false)
		ps.country.addNull()
		ps.region.addNull()
		ps.sector.addNull()
		return
	}
	ps.gender.addStr(p.Gender.String())
	ps.known.addBool(p.Gender.Known())
	ps.female.addBool(p.Gender == gender.Female)
	if p.CountryCode == "" {
		ps.country.addNull()
	} else {
		ps.country.addStr(p.CountryCode)
	}
	if region := countries.SubregionOf(p.CountryCode); region == "" {
		ps.region.addNull()
	} else {
		ps.region.addStr(region)
	}
	if p.Sector == affil.SectorUnknown {
		ps.sector.addNull()
	} else {
		ps.sector.addStr(p.Sector.String())
	}
}

// personCols is the builder-side realization of personSinks.
type personCols struct {
	gender, country, region, sector *colBuilder
	known, female                   *colBuilder
}

func newPersonCols() personCols {
	return personCols{
		gender:  newStrCol("gender", NewDict("female", "male", "unknown")),
		known:   newBoolCol("known"),
		female:  newBoolCol("female"),
		country: newStrCol("country", nil),
		region:  newStrCol("region", nil),
		sector:  newStrCol("sector", NewDict("COM", "EDU", "GOV")),
	}
}

func (pc *personCols) sinks() personSinks {
	return personSinks{pc.gender, pc.known, pc.female, pc.country, pc.region, pc.sector}
}

func (pc *personCols) add(p *dataset.Person) { pc.sinks().add(p) }

func (pc *personCols) finish(n int) []*Column {
	return []*Column{
		pc.gender.finish(n), pc.known.finish(n), pc.female.finish(n),
		pc.country.finish(n), pc.region.finish(n), pc.sector.finish(n),
	}
}

// slotsSinks names the slots frame's columns in schema order for the
// shared per-conference emission helper.
type slotsSinks struct {
	conf, name, year, role, person                             colSink
	pc                                                         personSinks
	doubleBlind, attendance, lead, last, paper, citations, hpc colSink
}

// emitConfSlots emits every role slot of one conference — roles in the
// paper's presentation order, authors via the conference's papers with
// lead/last flags, other roles via rosters — and returns the row count.
// Shared verbatim between buildSlots and the append path so an appended
// conference produces exactly the rows a rebuild would.
func emitConfSlots(d *dataset.Dataset, c *dataset.Conference, s slotsSinks) int {
	n := 0
	addRow := func(r dataset.Role, id dataset.PersonID, pap *dataset.Paper, isLead, isLast bool) {
		s.conf.addStr(string(c.ID))
		s.name.addStr(c.Name)
		s.year.addInt(int64(c.Year))
		s.role.addStr(r.String())
		s.person.addStr(string(id))
		p, _ := d.Person(id)
		s.pc.add(p)
		s.doubleBlind.addBool(c.DoubleBlind)
		s.attendance.addFloat(c.WomenAttendance)
		s.lead.addBool(isLead)
		s.last.addBool(isLast)
		if pap == nil {
			s.paper.addNull()
			s.citations.addNull()
			s.hpc.addNull()
		} else {
			s.paper.addStr(string(pap.ID))
			s.citations.addInt(int64(pap.Citations36))
			s.hpc.addBool(pap.HPCTopic)
		}
		n++
	}
	for _, r := range dataset.Roles() {
		if r == dataset.RoleAuthor {
			for _, pap := range d.PapersOf(c.ID) {
				for ai, id := range pap.Authors {
					addRow(r, id, pap, ai == 0, ai == len(pap.Authors)-1)
				}
			}
			continue
		}
		for _, id := range c.RoleHolders(r) {
			addRow(r, id, nil, false, false)
		}
	}
	return n
}

// buildSlots emits one row per role slot, with repeats, conference-major
// then role-minor — so appending a conference edition is a pure tail
// append (the delta path's O(new rows) guarantee). Grouping still surfaces
// Table 1 / Fig 1 order without an explicit sort because the conference
// and role dictionaries are pre-seeded in presentation order and
// "appearance" sorting compares dictionary codes, not row positions.
func buildSlots(d *dataset.Dataset) *Frame {
	confIDs, confNames := confDicts(d)
	conf := newStrCol("conf", confIDs)
	name := newStrCol("conference", confNames)
	year := newIntCol("year")
	role := newStrCol("role", roleDict())
	person := newStrCol("person", nil)
	pc := newPersonCols()
	doubleBlind := newBoolCol("double_blind")
	attendance := newFloatCol("attendance")
	lead := newBoolCol("lead")
	last := newBoolCol("last")
	paper := newStrCol("paper", nil)
	citations := newIntCol("citations36")
	hpc := newBoolCol("hpc_topic")

	s := slotsSinks{
		conf: conf, name: name, year: year, role: role, person: person,
		pc:          pc.sinks(),
		doubleBlind: doubleBlind, attendance: attendance, lead: lead, last: last,
		paper: paper, citations: citations, hpc: hpc,
	}
	n := 0
	for _, c := range d.Conferences {
		n += emitConfSlots(d, c, s)
	}
	cols := []*Column{
		conf.finish(n), name.finish(n), year.finish(n), role.finish(n), person.finish(n),
	}
	cols = append(cols, pc.finish(n)...)
	cols = append(cols,
		doubleBlind.finish(n), attendance.finish(n), lead.finish(n), last.finish(n),
		paper.finish(n), citations.finish(n), hpc.finish(n),
	)
	return newFrame(FrameSlots, n, cols)
}

// rolePresence returns, per person, the set of roles held anywhere in the
// corpus (authors via papers, other roles via rosters).
func rolePresence(d *dataset.Dataset) map[dataset.PersonID]map[dataset.Role]bool {
	held := make(map[dataset.PersonID]map[dataset.Role]bool, len(d.Persons))
	for _, p := range d.Papers {
		for _, id := range p.Authors {
			markRole(held, id, dataset.RoleAuthor)
		}
	}
	for _, c := range d.Conferences {
		for _, r := range dataset.Roles() {
			if r == dataset.RoleAuthor {
				continue
			}
			for _, id := range c.RoleHolders(r) {
				markRole(held, id, r)
			}
		}
	}
	return held
}

func markRole(held map[dataset.PersonID]map[dataset.Role]bool, id dataset.PersonID, r dataset.Role) {
	m := held[id]
	if m == nil {
		m = make(map[dataset.Role]bool, 2)
		held[id] = m
	}
	m[r] = true
}

// peopleSinks names the people frame's columns in schema order for the
// shared per-person emission helper.
type peopleSinks struct {
	person                         colSink
	pc                             personSinks
	roleFlags                      []colSink
	papers, gsPubs, hindex, s2Pubs colSink
}

// emitPersonRow emits one researcher row given the roles they hold and
// their authored-paper count. Shared between buildPeople and the append
// path (which calls it only for persons first appearing in the appended
// conference).
func emitPersonRow(d *dataset.Dataset, id dataset.PersonID, roles map[dataset.Role]bool, papers int64, s peopleSinks) {
	s.person.addStr(string(id))
	p, _ := d.Person(id)
	s.pc.add(p)
	for ri, r := range dataset.Roles() {
		s.roleFlags[ri].addBool(roles[r])
	}
	s.papers.addInt(papers)
	if p != nil && p.HasGSProfile {
		s.gsPubs.addFloat(float64(p.GS.Publications))
		s.hindex.addFloat(float64(p.GS.HIndex))
	} else {
		s.gsPubs.addNull()
		s.hindex.addNull()
	}
	if p != nil && p.HasS2 {
		s.s2Pubs.addFloat(float64(p.S2Pubs))
	} else {
		s.s2Pubs.addNull()
	}
}

// buildPeople emits one row per unique researcher holding any role, sorted
// by person ID. Because the synthesizer mints person IDs in increasing
// order, researchers first appearing in an appended conference sort after
// every existing row, keeping this order append-only too (AppendConference
// verifies that precondition rather than assuming it).
func buildPeople(d *dataset.Dataset) *Frame {
	held := rolePresence(d)
	ids := make([]string, 0, len(held))
	for id := range held {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)

	person := newStrCol("person", nil)
	pc := newPersonCols()
	roleFlags := make([]*colBuilder, 0, 6)
	for _, r := range dataset.Roles() {
		roleFlags = append(roleFlags, newBoolCol("is_"+flagName(r)))
	}
	papers := newIntCol("papers")
	gsPubs := newFloatCol("gs_pubs")
	hindex := newFloatCol("hindex")
	s2Pubs := newFloatCol("s2_pubs")

	authored := make(map[dataset.PersonID]int64, len(held))
	for _, p := range d.Papers {
		for _, id := range p.Authors {
			authored[id]++
		}
	}

	flagSinks := make([]colSink, len(roleFlags))
	for i, rf := range roleFlags {
		flagSinks[i] = rf
	}
	s := peopleSinks{
		person: person, pc: pc.sinks(), roleFlags: flagSinks,
		papers: papers, gsPubs: gsPubs, hindex: hindex, s2Pubs: s2Pubs,
	}
	n := 0
	for _, sid := range ids {
		id := dataset.PersonID(sid)
		emitPersonRow(d, id, held[id], authored[id], s)
		n++
	}
	cols := []*Column{person.finish(n)}
	cols = append(cols, pc.finish(n)...)
	for _, rf := range roleFlags {
		cols = append(cols, rf.finish(n))
	}
	cols = append(cols, papers.finish(n), gsPubs.finish(n), hindex.finish(n), s2Pubs.finish(n))
	return newFrame(FramePeople, n, cols)
}

// flagName converts a role label to a column suffix ("PC member" →
// "pc_member").
func flagName(r dataset.Role) string {
	return strings.ReplaceAll(strings.ToLower(r.String()), " ", "_")
}

// membersSinks names the members frame's columns in schema order.
type membersSinks struct {
	role, person colSink
	pc           personSinks
}

// confNewMembers returns the members first qualifying at conference c —
// paper authors not seen at any earlier conference, then PC members
// likewise — each sorted by ID, and marks them seen.
func confNewMembers(d *dataset.Dataset, c *dataset.Conference, seenAuthor, seenPC map[dataset.PersonID]bool) (authors, members []dataset.PersonID) {
	for _, id := range d.UniqueAuthors(c.ID) {
		if !seenAuthor[id] {
			seenAuthor[id] = true
			authors = append(authors, id)
		}
	}
	for _, id := range d.UniqueRoleHolders(dataset.RolePCMember, c.ID) {
		if !seenPC[id] {
			seenPC[id] = true
			members = append(members, id)
		}
	}
	return authors, members
}

// emitConfMembers emits the rows conference c contributes to the members
// frame — its newly-qualifying unique authors followed by its
// newly-qualifying unique PC members — and returns the row count.
func emitConfMembers(d *dataset.Dataset, c *dataset.Conference, seenAuthor, seenPC map[dataset.PersonID]bool, s membersSinks) int {
	authors, members := confNewMembers(d, c, seenAuthor, seenPC)
	emit := func(r dataset.Role, ids []dataset.PersonID) {
		for _, id := range ids {
			s.role.addStr(r.String())
			s.person.addStr(string(id))
			p, _ := d.Person(id)
			s.pc.add(p)
		}
	}
	emit(dataset.RoleAuthor, authors)
	emit(dataset.RolePCMember, members)
	return len(authors) + len(members)
}

// buildMembers emits one row per (person, population) membership, where the
// populations are the paper's two §5 demographic bases: unique authors and
// unique PC members. A person in both populations contributes two rows.
// Rows are in first-qualification order — conferences in corpus order, and
// per conference the newly-qualifying unique authors (sorted by ID)
// followed by the newly-qualifying PC members (sorted by ID) — so the
// membership multiset equals the global unique populations while appending
// a conference only ever appends rows.
func buildMembers(d *dataset.Dataset) *Frame {
	role := newStrCol("role", NewDict(
		dataset.RoleAuthor.String(), dataset.RolePCMember.String()))
	person := newStrCol("person", nil)
	pc := newPersonCols()

	s := membersSinks{role: role, person: person, pc: pc.sinks()}
	seenAuthor := make(map[dataset.PersonID]bool)
	seenPC := make(map[dataset.PersonID]bool)
	n := 0
	for _, c := range d.Conferences {
		n += emitConfMembers(d, c, seenAuthor, seenPC, s)
	}

	cols := []*Column{role.finish(n), person.finish(n)}
	cols = append(cols, pc.finish(n)...)
	return newFrame(FrameMembers, n, cols)
}

// papersSinks names the papers frame's columns in schema order.
type papersSinks struct {
	paper, conf, name, year              colSink
	leadGender, leadKnown, leadFemale    colSink
	citations, hpc, authors, doubleBlind colSink
}

// emitPaperRow emits one paper row with lead-author demographics
// denormalized.
func emitPaperRow(d *dataset.Dataset, p *dataset.Paper, c *dataset.Conference, s papersSinks) {
	s.paper.addStr(string(p.ID))
	s.conf.addStr(string(c.ID))
	s.name.addStr(c.Name)
	s.year.addInt(int64(c.Year))
	g := "unknown"
	if lead, ok := d.Person(p.Lead()); ok {
		g = lead.Gender.String()
	}
	s.leadGender.addStr(g)
	s.leadKnown.addBool(g == "female" || g == "male")
	s.leadFemale.addBool(g == "female")
	s.citations.addInt(int64(p.Citations36))
	s.hpc.addBool(p.HPCTopic)
	s.authors.addInt(int64(len(p.Authors)))
	s.doubleBlind.addBool(c.DoubleBlind)
}

// buildPapers emits one row per paper in corpus order, with lead-author
// demographics denormalized for reception-style slices. Corpus order keeps
// each conference's papers contiguous (the synthesizer and the delta merge
// both append per conference), so appending a conference appends rows.
func buildPapers(d *dataset.Dataset) *Frame {
	confIDs, confNames := confDicts(d)
	paper := newStrCol("paper", nil)
	conf := newStrCol("conference", confIDs)
	name := newStrCol("conference_name", confNames)
	year := newIntCol("year")
	leadGender := newStrCol("lead_gender", NewDict("female", "male", "unknown"))
	leadKnown := newBoolCol("lead_known")
	leadFemale := newBoolCol("lead_female")
	citations := newIntCol("citations36")
	hpc := newBoolCol("hpc_topic")
	authors := newIntCol("authors")
	doubleBlind := newBoolCol("double_blind")

	s := papersSinks{
		paper: paper, conf: conf, name: name, year: year,
		leadGender: leadGender, leadKnown: leadKnown, leadFemale: leadFemale,
		citations: citations, hpc: hpc, authors: authors, doubleBlind: doubleBlind,
	}
	n := 0
	for _, p := range d.Papers {
		c, ok := d.Conference(p.Conf)
		if !ok {
			continue
		}
		emitPaperRow(d, p, c, s)
		n++
	}
	return newFrame(FramePapers, n, []*Column{
		paper.finish(n), conf.finish(n), name.finish(n), year.finish(n),
		leadGender.finish(n), leadKnown.finish(n), leadFemale.finish(n),
		citations.finish(n), hpc.finish(n), authors.finish(n), doubleBlind.finish(n),
	})
}

// confParticipants returns the unique participants of one conference —
// every paper author plus every roster member — sorted by ID.
func confParticipants(d *dataset.Dataset, c *dataset.Conference) []dataset.PersonID {
	set := participantSet(d, c)
	out := make([]dataset.PersonID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// participantSet returns the unique participant set of one conference.
func participantSet(d *dataset.Dataset, c *dataset.Conference) map[dataset.PersonID]bool {
	set := make(map[dataset.PersonID]bool)
	for _, p := range d.PapersOf(c.ID) {
		for _, id := range p.Authors {
			set[id] = true
		}
	}
	for _, r := range dataset.Roles() {
		for _, id := range c.RoleHolders(r) {
			set[id] = true
		}
	}
	return set
}

// nextEdition returns the conference of the same series held the following
// year, if the corpus holds one.
func nextEdition(d *dataset.Dataset, c *dataset.Conference) *dataset.Conference {
	for _, o := range d.Conferences {
		if o != c && o.Name == c.Name && o.Year == c.Year+1 {
			return o
		}
	}
	return nil
}

// prevEdition returns the conference of the same series held the preceding
// year, if the corpus holds one.
func prevEdition(d *dataset.Dataset, c *dataset.Conference) *dataset.Conference {
	for _, o := range d.Conferences {
		if o != c && o.Name == c.Name && o.Year == c.Year-1 {
			return o
		}
	}
	return nil
}

// cohortsSinks names the cohorts frame's columns in schema order.
type cohortsSinks struct {
	conf, series, year, person colSink
	pc                         personSinks
	retained, observed         colSink
}

// emitConfCohorts emits one row per unique participant of conference c,
// sorted by ID, with the retention outcome against the next edition of the
// same series: observed reports whether that edition exists in the corpus,
// retained whether the participant appears in it. Returns the row count.
func emitConfCohorts(d *dataset.Dataset, c *dataset.Conference, s cohortsSinks) int {
	next := nextEdition(d, c)
	var nextSet map[dataset.PersonID]bool
	if next != nil {
		nextSet = participantSet(d, next)
	}
	n := 0
	for _, id := range confParticipants(d, c) {
		s.conf.addStr(string(c.ID))
		s.series.addStr(c.Name)
		s.year.addInt(int64(c.Year))
		s.person.addStr(string(id))
		p, _ := d.Person(id)
		s.pc.add(p)
		s.retained.addBool(next != nil && nextSet[id])
		s.observed.addBool(next != nil)
		n++
	}
	return n
}

// buildCohorts emits one row per (conference, unique participant) pair —
// the cohort-retention base of the trend workload. Rows are
// conference-major in corpus order with participants sorted by ID, so an
// appended conference contributes a pure tail block; its arrival also
// flips the previous edition's observed/retained bits, which the append
// path patches in place.
func buildCohorts(d *dataset.Dataset) *Frame {
	confIDs, confNames := confDicts(d)
	conf := newStrCol("conf", confIDs)
	series := newStrCol("series", confNames)
	year := newIntCol("year")
	person := newStrCol("person", nil)
	pc := newPersonCols()
	retained := newBoolCol("retained")
	observed := newBoolCol("observed")

	s := cohortsSinks{
		conf: conf, series: series, year: year, person: person,
		pc:       pc.sinks(),
		retained: retained, observed: observed,
	}
	n := 0
	for _, c := range d.Conferences {
		n += emitConfCohorts(d, c, s)
	}
	cols := []*Column{conf.finish(n), series.finish(n), year.finish(n), person.finish(n)}
	cols = append(cols, pc.finish(n)...)
	cols = append(cols, retained.finish(n), observed.finish(n))
	return newFrame(FrameCohorts, n, cols)
}

// citeSinks names the citations frame's columns in schema order.
type citeSinks struct {
	srcPaper, srcConf, srcYear colSink
	dstPaper, dstConf, dstYear colSink
	team, srcLead, dstLead     colSink
	dstKnown, dstFemale        colSink
	sameConf, crossYear        colSink
	nullFemale, nullKnown      colSink
	region                     colSink
}

// emitCitationEdges emits one row per citation edge — src attributes, dst
// attributes, the citing-team category, and the paired null draw's gender
// bits — and returns the row count. Shared between buildCitations and the
// append path, which passes only the appended conference's edge tail.
func emitCitationEdges(d *dataset.Dataset, m *cite.Meta, edges []cite.Edge, s citeSinks) int {
	for _, e := range edges {
		src, dst := d.Papers[e.Src], d.Papers[e.Dst]
		s.srcPaper.addStr(string(src.ID))
		s.srcConf.addStr(string(src.Conf))
		s.srcYear.addInt(int64(m.Year[e.Src]))
		s.dstPaper.addStr(string(dst.ID))
		s.dstConf.addStr(string(dst.Conf))
		s.dstYear.addInt(int64(m.Year[e.Dst]))
		s.team.addStr(m.Team[e.Src])
		s.srcLead.addStr(m.Lead[e.Src].String())
		s.dstLead.addStr(m.Lead[e.Dst].String())
		s.dstKnown.addBool(m.Lead[e.Dst].Known())
		s.dstFemale.addBool(m.Lead[e.Dst] == gender.Female)
		s.sameConf.addBool(src.Conf == dst.Conf)
		s.crossYear.addBool(m.Year[e.Dst] != m.Year[e.Src])
		s.nullFemale.addBool(m.Lead[e.Null] == gender.Female)
		s.nullKnown.addBool(m.Lead[e.Null].Known())
		if region := countries.SubregionOf(m.Country[e.Src]); region == "" {
			s.region.addNull()
		} else {
			s.region.addStr(region)
		}
	}
	return len(edges)
}

// buildCitations synthesizes the citation graph (internal/cite, a pure
// function of the corpus) and emits one row per directed edge, in graph
// order: source papers in corpus order, draws in selection order. Because
// candidate pools only reach same-conference or earlier-year papers,
// appending a newest-year conference contributes a pure tail block.
func buildCitations(d *dataset.Dataset) *Frame {
	g := cite.Synthesize(d)
	m := cite.NewMeta(d)
	srcConfIDs, _ := confDicts(d)
	dstConfIDs, _ := confDicts(d)
	srcPaper := newStrCol("src_paper", nil)
	srcConf := newStrCol("src_conf", srcConfIDs)
	srcYear := newIntCol("src_year")
	dstPaper := newStrCol("dst_paper", nil)
	dstConf := newStrCol("dst_conf", dstConfIDs)
	dstYear := newIntCol("dst_year")
	team := newStrCol("team", NewDict(cite.TeamCategories()...))
	srcLead := newStrCol("src_lead_gender", NewDict("female", "male", "unknown"))
	dstLead := newStrCol("dst_lead_gender", NewDict("female", "male", "unknown"))
	dstKnown := newBoolCol("dst_lead_known")
	dstFemale := newBoolCol("dst_lead_female")
	sameConf := newBoolCol("same_conf")
	crossYear := newBoolCol("cross_year")
	nullFemale := newBoolCol("null_female")
	nullKnown := newBoolCol("null_known")
	region := newStrCol("src_region", nil)

	s := citeSinks{
		srcPaper: srcPaper, srcConf: srcConf, srcYear: srcYear,
		dstPaper: dstPaper, dstConf: dstConf, dstYear: dstYear,
		team: team, srcLead: srcLead, dstLead: dstLead,
		dstKnown: dstKnown, dstFemale: dstFemale,
		sameConf: sameConf, crossYear: crossYear,
		nullFemale: nullFemale, nullKnown: nullKnown,
		region: region,
	}
	n := emitCitationEdges(d, m, g.Edges, s)
	return newFrame(FrameCitations, n, []*Column{
		srcPaper.finish(n), srcConf.finish(n), srcYear.finish(n),
		dstPaper.finish(n), dstConf.finish(n), dstYear.finish(n),
		team.finish(n), srcLead.finish(n), dstLead.finish(n),
		dstKnown.finish(n), dstFemale.finish(n),
		sameConf.finish(n), crossYear.finish(n),
		nullFemale.finish(n), nullKnown.finish(n),
		region.finish(n),
	})
}
