package query

import (
	"sort"

	"repro/internal/cite"
	"repro/internal/dataset"
)

// This file is the incremental-maintenance half of frame construction: it
// grows an already-built FrameSet in place when one conference edition is
// appended to the corpus, producing byte-identical frames (under the
// snapshot codec's canonical encoding) to a full NewFrameSet rebuild while
// touching only O(new rows) of column data. Rows are written by the same
// per-conference emission helpers and the same frameWriter NewFrameSet
// uses; only the patches of existing rows (people tallies, the previous
// cohort's retention bits) are specific to this path.

// AppendConference grows the frame set, built over d before conference
// confID and its papers were merged at its tail, in place with the rows
// confID contributes. The corpus rules delta.Apply checks before the merge
// are all it assumes, besides the shape NewFrameSet and FrameSetOf give
// every frame set. Afterwards the frame set is byte-identical (under the
// snapshot codec's canonical encoding) to NewFrameSet(d); repro_test pins
// that postcondition corpus-wide.
func (fs *FrameSet) AppendConference(d *dataset.Dataset, confID dataset.ConfID) {
	c, _ := d.Conference(confID)
	confRoles, confAuthored := confContribution(d, c)
	people, _ := fs.Frame(FramePeople)
	personCol := people.byName["person"]
	newIDs := make([]string, 0, len(confRoles))
	for id := range confRoles {
		if _, seen := personCol.Dict.Lookup(string(id)); !seen {
			newIDs = append(newIDs, string(id))
		}
	}
	sort.Strings(newIDs)

	w := fs.writer(FrameSlots, d)
	emitConfSlots(d, c, w)
	w.close()
	fs.appendMembers(d, c)
	fs.appendPeople(d, confRoles, confAuthored, newIDs)
	w = fs.writer(FramePapers, d)
	for _, p := range d.PapersOf(c.ID) {
		emitPaperRow(d, p, c, w)
	}
	w.close()
	fs.appendCohorts(d, c)
	// Only the new conference's citation edges are synthesized and
	// appended. Existing rows are untouched: the year precondition
	// guarantees no appended paper enters an existing paper's candidate
	// pool, so the result matches a full graph resynthesis edge-for-edge.
	w = fs.writer(FrameCitations, d)
	emitCitationEdges(d, cite.NewMeta(d), cite.ConferenceEdges(d, confID), w)
	w.close()
}

// writer binds a frameWriter to the named frame, re-seeding its
// dictionaries from d (which appends the new conference to the conference
// dictionaries even when no appended row mentions it).
func (fs *FrameSet) writer(name string, d *dataset.Dataset) *frameWriter {
	f, _ := fs.Frame(name)
	for _, def := range frameDefs {
		if def.name == name {
			return newFrameWriter(f, def.cols, d)
		}
	}
	panic("query: no frame definition for " + name)
}

// confContribution returns, per person participating in conference c, the
// roles held there and the number of its papers they authored.
func confContribution(d *dataset.Dataset, c *dataset.Conference) (map[dataset.PersonID]map[dataset.Role]bool, map[dataset.PersonID]int64) {
	roles := make(map[dataset.PersonID]map[dataset.Role]bool)
	authored := make(map[dataset.PersonID]int64)
	for _, p := range d.PapersOf(c.ID) {
		for _, id := range p.Authors {
			markRole(roles, id, dataset.RoleAuthor)
			authored[id]++
		}
	}
	for _, r := range dataset.Roles() {
		if r == dataset.RoleAuthor {
			continue
		}
		for _, id := range c.RoleHolders(r) {
			markRole(roles, id, r)
		}
	}
	return roles, authored
}

// appendPeople patches the rows of researchers already present (new role
// flags, incremented paper counts — their demographics and scholar columns
// are untouched because the person records themselves are immutable) and
// appends one row per researcher first appearing at the new conference, in
// sorted ID order. Row index equals person dictionary code: rows are
// emitted in sorted order with unique IDs, so codes are assigned 0..n-1 in
// row order, appended rows keep that true, and FrameSetOf proves it of a
// decoded frame.
func (fs *FrameSet) appendPeople(d *dataset.Dataset, confRoles map[dataset.PersonID]map[dataset.Role]bool, confAuthored map[dataset.PersonID]int64, newIDs []string) {
	f, _ := fs.Frame(FramePeople)
	personCol, papersCol := f.byName["person"], f.byName["papers"]
	roleCols := make([]*Column, len(dataset.Roles()))
	for i, r := range dataset.Roles() {
		roleCols[i] = f.byName[roleFlag(r)]
	}

	ids := make([]string, 0, len(confRoles))
	for id := range confRoles {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, sid := range ids {
		code, seen := personCol.Dict.Lookup(sid)
		if !seen {
			continue // first appearance: appended below
		}
		row := int(code)
		for ri, r := range dataset.Roles() {
			if confRoles[dataset.PersonID(sid)][r] {
				roleCols[ri].Bools.Set(row)
			}
		}
		papersCol.Ints[row] += confAuthored[dataset.PersonID(sid)]
	}

	w := fs.writer(FramePeople, d)
	for _, sid := range newIDs {
		id := dataset.PersonID(sid)
		emitPersonRow(d, id, confRoles[id], confAuthored[id], w)
	}
	w.close()
}

// appendMembers writes the new conference's rows of the members frame. A
// participant qualifies for a population for the first time at c when the
// people frame, read before appendPeople patches it, has no row for them
// or does not yet flag them in it.
func (fs *FrameSet) appendMembers(d *dataset.Dataset, c *dataset.Conference) {
	people, _ := fs.Frame(FramePeople)
	person := people.byName["person"]
	flag := map[dataset.Role]*Column{
		dataset.RoleAuthor:   people.byName[roleFlag(dataset.RoleAuthor)],
		dataset.RolePCMember: people.byName[roleFlag(dataset.RolePCMember)],
	}
	first := func(r dataset.Role, id dataset.PersonID) bool {
		row, ok := person.Dict.Lookup(string(id))
		return !ok || !flag[r].Bools.Get(int(row))
	}
	w := fs.writer(FrameMembers, d)
	emitConfMembers(d, c, first, w)
	w.close()
}

// appendCohorts patches the previous edition of the same series in place —
// its participants' observed bits flip on and retained bits reflect
// membership in the appended edition — then appends the new edition's own
// cohort block.
func (fs *FrameSet) appendCohorts(d *dataset.Dataset, c *dataset.Conference) {
	f, _ := fs.Frame(FrameCohorts)
	conf, personCol := f.byName["conf"], f.byName["person"]
	retCol, obsCol := f.byName["retained"], f.byName["observed"]

	if prev := prevEdition(d, c); prev != nil {
		if code, ok := conf.Dict.Lookup(string(prev.ID)); ok {
			cur := participantSet(d, c)
			// The previous edition's block was built with observed=false and
			// retained=false (no next edition existed); the bits only ever
			// flip on, so setting without clearing is exact.
			for i := 0; i < f.NumRows; i++ {
				if conf.Codes[i] != code {
					continue
				}
				obsCol.Bools.Set(i)
				if cur[dataset.PersonID(personCol.str(i))] {
					retCol.Bools.Set(i)
				}
			}
		}
	}

	w := fs.writer(FrameCohorts, d)
	emitConfCohorts(d, c, w)
	w.close()
}
