package query

import (
	"fmt"
	"slices"
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

// Entities whose IDs string columns hold. Every column holding one
// entity's IDs is declared with it in its frame's schema.
const (
	EntityPerson = "person" // the person column of slots, people, members and cohorts
	EntityPaper  = "paper"  // slots.paper, papers.paper, citations.src_paper and dst_paper
)

// Entities lists the entities in fixed order.
func Entities() []string { return []string{EntityPerson, EntityPaper} }

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

// frameDef declares one frame: its name, its columns in schema order, and
// the writer of its full-corpus rows that NewFrameSet runs over its empty
// form.
type frameDef struct {
	name  string
	cols  []colDef
	build func(*dataset.Dataset, *frameWriter)
}

// frameDefs lists every frame of a FrameSet, in FrameSet order.
var frameDefs = []frameDef{
	{FrameSlots, slotsCols, buildSlots},
	{FramePeople, peopleCols, buildPeople},
	{FrameMembers, membersCols, buildMembers},
	{FramePapers, papersCols, buildPapers},
	{FrameCohorts, cohortsCols, buildCohorts},
	{FrameCitations, citationsCols, buildCitations},
}

// NewFrameSet flattens a corpus into columnar frames: every frame starts
// empty and its rows are written through the same writer AppendConference
// uses. Dictionaries that carry a presentation order (conference, role,
// population) are pre-seeded so "appearance"-mode sorting reproduces the
// paper's table order.
func NewFrameSet(d *dataset.Dataset) *FrameSet {
	fs := &FrameSet{frames: make([]*Frame, len(frameDefs))}
	for i, def := range frameDefs {
		f := emptyFrame(def.name, def.cols)
		w := newFrameWriter(f, def.cols, d)
		def.build(d, w)
		w.close()
		fs.frames[i] = f
	}
	return fs
}

// FrameData is one frame as the snapshot codec writes and reads it: its
// name, row count and columns.
type FrameData struct {
	Name    string
	NumRows int
	Columns []*Column
}

// Data returns the frames in FrameSet order, for the snapshot codec.
// Callers must treat the columns as read-only.
func (fs *FrameSet) Data() []FrameData {
	out := make([]FrameData, len(fs.frames))
	for i, f := range fs.frames {
		out[i] = FrameData{Name: f.Name, NumRows: f.NumRows, Columns: f.cols}
	}
	return out
}

// FrameSetOf reconstitutes the frame set of corpus d from decoded frames,
// which the caller has proven whole column by column: one value per row,
// dictionary codes in range, bitmaps sized to the rows, dictionaries
// repeat-free. FrameSetOf proves what the engine and AppendConference
// assume of the set as a whole, and refuses anything else:
//   - the frames are NewFrameSet's, in its order, and each column has its
//     declared name, type and entity;
//   - every conference-ID column's dictionary is d's conference IDs, in
//     corpus order;
//   - the people frame has one row per person, each person's code equal
//     to its row.
func FrameSetOf(d *dataset.Dataset, frames []FrameData) (*FrameSet, error) {
	names := make([]string, len(frames))
	for i, fd := range frames {
		names[i] = fd.Name
	}
	want := make([]string, len(frameDefs))
	for i, def := range frameDefs {
		want[i] = def.name
	}
	if !slices.Equal(names, want) {
		return nil, fmt.Errorf("query: frames %q, want %q", names, want)
	}
	conferences := confIDs(d)
	fs := &FrameSet{frames: make([]*Frame, len(frames))}
	for i, def := range frameDefs {
		fd := frames[i]
		if len(fd.Columns) != len(def.cols) {
			return nil, fmt.Errorf("query: frame %q has %d columns, want %d", fd.Name, len(fd.Columns), len(def.cols))
		}
		for j, cd := range def.cols {
			c := fd.Columns[j]
			if c.Name != cd.name || c.Type != cd.typ || c.Entity != cd.entity {
				got := colDef{name: c.Name, typ: c.Type, entity: c.Entity}
				return nil, fmt.Errorf("query: frame %q column %d is %s, want %s", fd.Name, j, got, cd)
			}
			if cd.conf && !slices.Equal(c.Dict.vals, conferences) {
				return nil, fmt.Errorf("query: frame %q column %q does not hold the corpus's conference IDs in corpus order", fd.Name, c.Name)
			}
		}
		fs.frames[i] = newFrame(fd.Name, fd.NumRows, fd.Columns)
	}
	people, _ := fs.Frame(FramePeople)
	person := people.byName["person"]
	if n := person.Dict.Len(); n != people.NumRows {
		return nil, fmt.Errorf("query: people frame has %d rows for %d persons", people.NumRows, n)
	}
	for row, code := range person.Codes {
		if int(code) != row {
			return nil, fmt.Errorf("query: people frame row %d holds person code %d", row, code)
		}
	}
	return fs, nil
}

// Dictionary seeds shared by several frames.
var (
	genders = fixed("female", "male", "unknown")
	sectors = fixed("COM", "EDU", "GOV")
)

// confIDs and confNames seed conference dictionaries in Table 1 (dataset)
// order.
func confIDs(d *dataset.Dataset) []string {
	out := make([]string, len(d.Conferences))
	for i, c := range d.Conferences {
		out[i] = string(c.ID)
	}
	return out
}

func confNames(d *dataset.Dataset) []string {
	out := make([]string, len(d.Conferences))
	for i, c := range d.Conferences {
		out[i] = c.Name
	}
	return out
}

func roleNames(*dataset.Dataset) []string {
	out := make([]string, 0, 6)
	for _, r := range dataset.Roles() {
		out = append(out, r.String())
	}
	return out
}

// demographicCols are the six person columns addPerson writes, shared by
// the frames whose rows carry a person (slots, people, members, cohorts).
var demographicCols = []colDef{
	strCol("gender", genders), boolCol("known"), boolCol("female"),
	strCol("country", nil), strCol("region", nil), strCol("sector", sectors),
}

// addPerson writes one person's demographics; a nil person (dangling ID)
// writes gender "unknown" and null demographics, matching the analyses'
// exclusion convention.
func (w *frameWriter) addPerson(p *dataset.Person) {
	if p == nil {
		w.addStr("unknown")
		w.addBool(false)
		w.addBool(false)
		w.addNull()
		w.addNull()
		w.addNull()
		return
	}
	w.addStr(p.Gender.String())
	w.addBool(p.Gender.Known())
	w.addBool(p.Gender == gender.Female)
	if p.CountryCode == "" {
		w.addNull()
	} else {
		w.addStr(p.CountryCode)
	}
	if region := countries.SubregionOf(p.CountryCode); region == "" {
		w.addNull()
	} else {
		w.addStr(region)
	}
	if p.Sector == affil.SectorUnknown {
		w.addNull()
	} else {
		w.addStr(p.Sector.String())
	}
}

var slotsCols = concat(
	[]colDef{
		confCol("conf"), strCol("conference", confNames), intCol("year"),
		strCol("role", roleNames), entityCol("person", EntityPerson),
	},
	demographicCols,
	[]colDef{
		boolCol("double_blind"), floatCol("attendance"), boolCol("lead"), boolCol("last"),
		entityCol("paper", EntityPaper), intCol("citations36"), boolCol("hpc_topic"),
	},
)

// emitConfSlots writes every role slot of one conference — roles in the
// paper's presentation order, authors via the conference's papers with
// lead/last flags, other roles via rosters. Shared verbatim between
// buildSlots and the append path so an appended conference produces
// exactly the rows a rebuild would.
func emitConfSlots(d *dataset.Dataset, c *dataset.Conference, w *frameWriter) {
	addRow := func(r dataset.Role, id dataset.PersonID, pap *dataset.Paper, isLead, isLast bool) {
		w.addStr(string(c.ID))
		w.addStr(c.Name)
		w.addInt(int64(c.Year))
		w.addStr(r.String())
		w.addStr(string(id))
		p, _ := d.Person(id)
		w.addPerson(p)
		w.addBool(c.DoubleBlind)
		w.addFloat(c.WomenAttendance)
		w.addBool(isLead)
		w.addBool(isLast)
		if pap == nil {
			w.addNull()
			w.addNull()
			w.addNull()
		} else {
			w.addStr(string(pap.ID))
			w.addInt(int64(pap.Citations36))
			w.addBool(pap.HPCTopic)
		}
		w.endRow()
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
}

// buildSlots writes one row per role slot, with repeats, conference-major
// then role-minor — so appending a conference edition is a pure tail
// append (the delta path's O(new rows) guarantee). Grouping still surfaces
// Table 1 / Fig 1 order without an explicit sort because the conference
// and role dictionaries are pre-seeded in presentation order and
// "appearance" sorting compares dictionary codes, not row positions.
func buildSlots(d *dataset.Dataset, w *frameWriter) {
	for _, c := range d.Conferences {
		emitConfSlots(d, c, w)
	}
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

// roleFlag names the people frame's flag column for role r ("PC member" →
// "is_pc_member").
func roleFlag(r dataset.Role) string {
	return "is_" + strings.ReplaceAll(strings.ToLower(r.String()), " ", "_")
}

var peopleCols = concat(
	[]colDef{entityCol("person", EntityPerson)},
	demographicCols,
	func() []colDef {
		var flags []colDef
		for _, r := range dataset.Roles() {
			flags = append(flags, boolCol(roleFlag(r)))
		}
		return flags
	}(),
	[]colDef{intCol("papers"), floatCol("gs_pubs"), floatCol("hindex"), floatCol("s2_pubs")},
)

// emitPersonRow writes one researcher row given the roles they hold and
// their authored-paper count. Shared between buildPeople and the append
// path (which calls it only for persons first appearing in the appended
// conference).
func emitPersonRow(d *dataset.Dataset, id dataset.PersonID, roles map[dataset.Role]bool, papers int64, w *frameWriter) {
	w.addStr(string(id))
	p, _ := d.Person(id)
	w.addPerson(p)
	for _, r := range dataset.Roles() {
		w.addBool(roles[r])
	}
	w.addInt(papers)
	if p != nil && p.HasGSProfile {
		w.addFloat(float64(p.GS.Publications))
		w.addFloat(float64(p.GS.HIndex))
	} else {
		w.addNull()
		w.addNull()
	}
	if p != nil && p.HasS2 {
		w.addFloat(float64(p.S2Pubs))
	} else {
		w.addNull()
	}
	w.endRow()
}

// buildPeople writes one row per unique researcher holding any role,
// sorted by person ID. Because the synthesizer mints person IDs in
// increasing order, researchers first appearing in an appended conference
// sort after every existing row, keeping this order append-only too
// (delta.Apply refuses a newcomer that does not, and FrameSetOf refuses a
// decoded people frame whose codes are not its rows).
func buildPeople(d *dataset.Dataset, w *frameWriter) {
	held := rolePresence(d)
	ids := make([]string, 0, len(held))
	for id := range held {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)

	authored := make(map[dataset.PersonID]int64, len(held))
	for _, p := range d.Papers {
		for _, id := range p.Authors {
			authored[id]++
		}
	}
	for _, sid := range ids {
		id := dataset.PersonID(sid)
		emitPersonRow(d, id, held[id], authored[id], w)
	}
}

var membersCols = concat(
	[]colDef{
		strCol("role", fixed(dataset.RoleAuthor.String(), dataset.RolePCMember.String())),
		entityCol("person", EntityPerson),
	},
	demographicCols,
)

// emitConfMembers writes the rows conference c contributes to the members
// frame: its unique authors, then its unique PC members, each sorted by ID
// and each kept only when first reports that the person qualifies for that
// population for the first time at c.
func emitConfMembers(d *dataset.Dataset, c *dataset.Conference, first func(dataset.Role, dataset.PersonID) bool, w *frameWriter) {
	emit := func(r dataset.Role, ids []dataset.PersonID) {
		for _, id := range ids {
			if !first(r, id) {
				continue
			}
			w.addStr(r.String())
			w.addStr(string(id))
			p, _ := d.Person(id)
			w.addPerson(p)
			w.endRow()
		}
	}
	emit(dataset.RoleAuthor, d.UniqueAuthors(c.ID))
	emit(dataset.RolePCMember, d.UniqueRoleHolders(dataset.RolePCMember, c.ID))
}

// buildMembers writes one row per (person, population) membership, where
// the populations are the paper's two §5 demographic bases: unique authors
// and unique PC members. A person in both populations contributes two
// rows. Rows are in first-qualification order — conferences in corpus
// order, and per conference the newly-qualifying unique authors (sorted by
// ID) followed by the newly-qualifying PC members (sorted by ID) — so the
// membership multiset equals the global unique populations while appending
// a conference only ever appends rows.
func buildMembers(d *dataset.Dataset, w *frameWriter) {
	seen := map[dataset.Role]map[dataset.PersonID]bool{
		dataset.RoleAuthor:   {},
		dataset.RolePCMember: {},
	}
	first := func(r dataset.Role, id dataset.PersonID) bool {
		if seen[r][id] {
			return false
		}
		seen[r][id] = true
		return true
	}
	for _, c := range d.Conferences {
		emitConfMembers(d, c, first, w)
	}
}

var papersCols = []colDef{
	entityCol("paper", EntityPaper), confCol("conference"), strCol("conference_name", confNames), intCol("year"),
	strCol("lead_gender", genders), boolCol("lead_known"), boolCol("lead_female"),
	intCol("citations36"), boolCol("hpc_topic"), intCol("authors"), boolCol("double_blind"),
}

// emitPaperRow writes one paper row with lead-author demographics
// denormalized.
func emitPaperRow(d *dataset.Dataset, p *dataset.Paper, c *dataset.Conference, w *frameWriter) {
	w.addStr(string(p.ID))
	w.addStr(string(c.ID))
	w.addStr(c.Name)
	w.addInt(int64(c.Year))
	g := "unknown"
	if lead, ok := d.Person(p.Lead()); ok {
		g = lead.Gender.String()
	}
	w.addStr(g)
	w.addBool(g == "female" || g == "male")
	w.addBool(g == "female")
	w.addInt(int64(p.Citations36))
	w.addBool(p.HPCTopic)
	w.addInt(int64(len(p.Authors)))
	w.addBool(c.DoubleBlind)
	w.endRow()
}

// buildPapers writes one row per paper in corpus order, with lead-author
// demographics denormalized for reception-style slices. Corpus order keeps
// each conference's papers contiguous (the synthesizer and the delta merge
// both append per conference), so appending a conference appends rows.
func buildPapers(d *dataset.Dataset, w *frameWriter) {
	for _, p := range d.Papers {
		if c, ok := d.Conference(p.Conf); ok {
			emitPaperRow(d, p, c, w)
		}
	}
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

var cohortsCols = concat(
	[]colDef{confCol("conf"), strCol("series", confNames), intCol("year"), entityCol("person", EntityPerson)},
	demographicCols,
	[]colDef{boolCol("retained"), boolCol("observed")},
)

// emitConfCohorts writes one row per unique participant of conference c,
// sorted by ID, with the retention outcome against the next edition of the
// same series: observed reports whether that edition exists in the corpus,
// retained whether the participant appears in it.
func emitConfCohorts(d *dataset.Dataset, c *dataset.Conference, w *frameWriter) {
	next := nextEdition(d, c)
	var nextSet map[dataset.PersonID]bool
	if next != nil {
		nextSet = participantSet(d, next)
	}
	for _, id := range confParticipants(d, c) {
		w.addStr(string(c.ID))
		w.addStr(c.Name)
		w.addInt(int64(c.Year))
		w.addStr(string(id))
		p, _ := d.Person(id)
		w.addPerson(p)
		w.addBool(next != nil && nextSet[id])
		w.addBool(next != nil)
		w.endRow()
	}
}

// buildCohorts writes one row per (conference, unique participant) pair —
// the cohort-retention base of the trend workload. Rows are
// conference-major in corpus order with participants sorted by ID, so an
// appended conference contributes a pure tail block; its arrival also
// flips the previous edition's observed/retained bits, which the append
// path patches in place.
func buildCohorts(d *dataset.Dataset, w *frameWriter) {
	for _, c := range d.Conferences {
		emitConfCohorts(d, c, w)
	}
}

var citationsCols = []colDef{
	entityCol("src_paper", EntityPaper), confCol("src_conf"), intCol("src_year"),
	entityCol("dst_paper", EntityPaper), confCol("dst_conf"), intCol("dst_year"),
	strCol("team", fixed(cite.TeamCategories()...)),
	strCol("src_lead_gender", genders), strCol("dst_lead_gender", genders),
	boolCol("dst_lead_known"), boolCol("dst_lead_female"),
	boolCol("same_conf"), boolCol("cross_year"),
	boolCol("null_female"), boolCol("null_known"),
	strCol("src_region", nil),
}

// emitCitationEdges writes one row per citation edge — src attributes, dst
// attributes, the citing-team category, and the paired null draw's gender
// bits. Shared between buildCitations and the append path, which passes
// only the appended conference's edge tail.
func emitCitationEdges(d *dataset.Dataset, m *cite.Meta, edges []cite.Edge, w *frameWriter) {
	for _, e := range edges {
		src, dst := d.Papers[e.Src], d.Papers[e.Dst]
		w.addStr(string(src.ID))
		w.addStr(string(src.Conf))
		w.addInt(int64(m.Year[e.Src]))
		w.addStr(string(dst.ID))
		w.addStr(string(dst.Conf))
		w.addInt(int64(m.Year[e.Dst]))
		w.addStr(m.Team[e.Src])
		w.addStr(m.Lead[e.Src].String())
		w.addStr(m.Lead[e.Dst].String())
		w.addBool(m.Lead[e.Dst].Known())
		w.addBool(m.Lead[e.Dst] == gender.Female)
		w.addBool(src.Conf == dst.Conf)
		w.addBool(m.Year[e.Dst] != m.Year[e.Src])
		w.addBool(m.Lead[e.Null] == gender.Female)
		w.addBool(m.Lead[e.Null].Known())
		if region := countries.SubregionOf(m.Country[e.Src]); region == "" {
			w.addNull()
		} else {
			w.addStr(region)
		}
		w.endRow()
	}
}

// buildCitations synthesizes the citation graph (internal/cite, a pure
// function of the corpus) and writes one row per directed edge, in graph
// order: source papers in corpus order, draws in selection order. Because
// candidate pools only reach same-conference or earlier-year papers,
// appending a newest-year conference contributes a pure tail block.
func buildCitations(d *dataset.Dataset, w *frameWriter) {
	emitCitationEdges(d, cite.NewMeta(d), cite.Synthesize(d).Edges, w)
}
