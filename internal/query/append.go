package query

import (
	"fmt"
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

// CheckAppend runs the frame checks AppendConference relies on, before
// conference c and its papers are merged into the base corpus d: every
// frame has its declared schema (a snapshot from an older generation may
// predate a column), the conference dictionary holds exactly d's
// conferences in corpus order, and researchers new to the people frame
// sort after its rows, which keeps its sorted-by-ID order append-only.
// The corpus-level preconditions (year order, newcomer IDs) are the
// caller's: delta.Apply checks them whether or not frames were built.
func (fs *FrameSet) CheckAppend(d *dataset.Dataset, c *dataset.Conference, papers []*dataset.Paper) error {
	for _, def := range frameDefs {
		f, ok := fs.Frame(def.name)
		if !ok {
			return fmt.Errorf("query: append: frame %q missing (rebuilt from an older snapshot?)", def.name)
		}
		if err := checkSchema(f, def.cols); err != nil {
			return fmt.Errorf("query: append: %w", err)
		}
	}
	slots, _ := fs.Frame(FrameSlots)
	confDict := slots.byName["conf"].Dict
	if _, dup := confDict.Lookup(string(c.ID)); dup {
		return fmt.Errorf("query: append: conference %q already present in frames", c.ID)
	}
	if confDict.Len() != len(d.Conferences) {
		return fmt.Errorf("query: append: frames hold %d conferences, dataset has %d before %q",
			confDict.Len(), len(d.Conferences), c.ID)
	}
	for i, bc := range d.Conferences {
		if confDict.Value(int32(i)) != string(bc.ID) {
			return fmt.Errorf("query: append: conference %q at corpus position %d not in frames", bc.ID, i)
		}
	}
	people, _ := fs.Frame(FramePeople)
	if people.NumRows == 0 {
		return nil
	}
	personCol := people.byName["person"]
	last := personCol.str(people.NumRows - 1)
	rosters := make([][]dataset.PersonID, 0, len(papers)+len(dataset.Roles()))
	for _, p := range papers {
		rosters = append(rosters, p.Authors)
	}
	for _, r := range dataset.Roles() {
		rosters = append(rosters, c.RoleHolders(r)) // nil for authors
	}
	for _, ids := range rosters {
		for _, id := range ids {
			if _, seen := personCol.Dict.Lookup(string(id)); !seen && string(id) <= last {
				return fmt.Errorf("query: append: new person %q does not sort after existing %q; people frame order not append-compatible",
					id, last)
			}
		}
	}
	return nil
}

// AppendConference grows the frame set in place with the rows contributed
// by conference confID of d: the corpus CheckAppend approved, with confID
// and its papers merged at its tail. edges are the conference's citation
// edges, cite.ConferenceEdges(d, confID): the caller synthesizes them once
// and shares them with the study's citation graph. Afterwards the frame
// set is byte-identical (under the snapshot codec's canonical encoding) to
// NewFrameSet(d); repro_test pins that postcondition corpus-wide.
func (fs *FrameSet) AppendConference(d *dataset.Dataset, confID dataset.ConfID, edges []cite.Edge) {
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
	fs.appendPeople(d, confRoles, confAuthored, newIDs)
	fs.appendMembers(d, c)
	w = fs.writer(FramePapers, d)
	for _, p := range d.PapersOf(c.ID) {
		emitPaperRow(d, p, c, w)
	}
	w.close()
	fs.appendCohorts(d, c)
	// Only the new conference's citation edges are appended. Existing rows
	// are untouched: the year precondition guarantees no appended paper
	// enters an existing paper's candidate pool, so the result matches a
	// full graph resynthesis edge-for-edge.
	w = fs.writer(FrameCitations, d)
	emitCitationEdges(d, cite.NewMeta(d), edges, w)
	w.close()
}

// writer binds a frameWriter to the named frame, whose schema
// CheckAppend has checked, re-seeding its dictionaries from d (which
// appends the new conference to the conference dictionaries even when no
// appended row mentions it).
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
// row order, and the precondition check keeps that true across appends.
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

// appendMembers rebuilds the base conferences' seen sets (map work
// proportional to the corpus, but no row emission or column writes), then
// writes only the new conference's newly-qualifying rows.
func (fs *FrameSet) appendMembers(d *dataset.Dataset, c *dataset.Conference) {
	// Only membership matters here (emitConfMembers sorts the new
	// conference's qualifiers itself), so the per-conference sorted scans
	// confNewMembers runs during a full build would cost milliseconds for
	// nothing.
	seenAuthor := make(map[dataset.PersonID]bool, len(d.Persons))
	seenPC := make(map[dataset.PersonID]bool)
	for _, bc := range d.Conferences {
		if bc.ID == c.ID {
			continue
		}
		for _, p := range d.PapersOf(bc.ID) {
			for _, id := range p.Authors {
				seenAuthor[id] = true
			}
		}
		for _, id := range bc.PCMembers {
			seenPC[id] = true
		}
	}
	w := fs.writer(FrameMembers, d)
	emitConfMembers(d, c, seenAuthor, seenPC, w)
	w.close()
}

// appendCohorts patches the previous edition of the same series in place —
// its participants' observed bits flip on and retained bits reflect
// membership in the appended edition — then appends the new edition's own
// cohort block.
func (fs *FrameSet) appendCohorts(d *dataset.Dataset, c *dataset.Conference) {
	f, _ := fs.Frame(FrameCohorts)
	confCol, personCol := f.byName["conf"], f.byName["person"]
	retCol, obsCol := f.byName["retained"], f.byName["observed"]

	if prev := prevEdition(d, c); prev != nil {
		if code, ok := confCol.Dict.Lookup(string(prev.ID)); ok {
			cur := participantSet(d, c)
			// The previous edition's block was built with observed=false and
			// retained=false (no next edition existed); the bits only ever
			// flip on, so setting without clearing is exact.
			for i := 0; i < f.NumRows; i++ {
				if confCol.Codes[i] != code {
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
