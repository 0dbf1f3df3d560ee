// Package delta is the longitudinal-snapshot subsystem: it packs one
// conference-year's contribution (synthesized by synth.GenerateYearDelta)
// into the snap delta container, and applies a decoded delta to a loaded
// study — merging the mini-corpus into the dataset and patching the
// columnar FrameSet in place — so appending a year to a warm study costs
// O(new rows) instead of a full resynthesis and frame rebuild.
//
// Apply is the one apply entry point, and it is atomic: it runs every
// check before its first write, so a refused delta leaves the dataset and
// the frames exactly as they were, and an accepted one cannot fail half
// way. Whether a delta is accepted depends only on the delta and the base
// corpus, never on whether the study has built its frames yet.
package delta

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/snap"
	"repro/internal/synth"
)

// Fingerprint summarizes a corpus's identity for delta compatibility: the
// conference IDs and years in slice order plus the person and paper
// counts. A delta records the fingerprint of the base it was generated
// against, and Apply refuses any other base — strong enough to catch the
// real failure modes (delta applied to the wrong seed, the wrong corpus
// family, or a base that already absorbed the delta) while staying O(number
// of conferences) to compute.
func Fingerprint(d *dataset.Dataset) uint64 {
	var buf []byte
	for _, c := range d.Conferences {
		buf = append(buf, c.ID...)
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Year))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(d.Persons)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(d.Papers)))
	return uint64(crc32.ChecksumIEEE(buf))
}

// Pack assembles the snapshot form of a synthesized year delta: the
// DeltaInfo stamped with the base corpus's fingerprint, plus the validated
// self-contained mini-corpus the snap delta sections carry.
func Pack(yd *synth.YearDelta, base *dataset.Dataset) (snap.DeltaInfo, *dataset.Dataset, error) {
	if yd == nil || yd.Conf == nil {
		return snap.DeltaInfo{}, nil, fmt.Errorf("delta: nil year delta")
	}
	if base == nil {
		return snap.DeltaInfo{}, nil, fmt.Errorf("delta: nil base corpus")
	}
	mini, err := yd.MiniCorpus()
	if err != nil {
		return snap.DeltaInfo{}, nil, err
	}
	info := snap.DeltaInfo{
		Year:            yd.Conf.Year,
		ConfID:          string(yd.Conf.ID),
		BaseFingerprint: Fingerprint(base),
	}
	return info, mini, nil
}

// WriteFile packs a synthesized year delta against its base corpus and
// writes it as a delta snapshot at path, with snap's atomic
// temp-and-rename discipline.
func WriteFile(path string, yd *synth.YearDelta, base *dataset.Dataset) error {
	info, mini, err := Pack(yd, base)
	if err != nil {
		return err
	}
	return snap.WriteFile(path, snap.Snapshot{Corpus: mini, Delta: &info})
}

// Apply merges a decoded delta into the loaded base: new participants and
// the conference and its papers join d, and when fs is non-nil every frame
// is patched in place (dict columns extended, rows appended, the people and
// cohorts frames' existing rows updated) to exactly the state a full
// rebuild over the merged corpus would produce. fs may be nil for callers
// that have not flattened frames yet — the lazy build then sees the merged
// corpus.
//
// Every refusal comes before the first write: the chaos point (inj, nil
// meaning none), the delta identity, the base fingerprint, records the
// corpus already holds, year order, and reused and new participants. These
// corpus rules alone decide acceptance, and no frame code runs before the
// merge: fs, built over d by query.NewFrameSet or proven against d by the
// snapshot decoder, has the shape AppendConference assumes, so whether a
// delta is accepted does not depend on whether fs is nil.
func Apply(d *dataset.Dataset, fs *query.FrameSet, info snap.DeltaInfo, mini *dataset.Dataset, inj chaos.Injector) error {
	if f := chaos.Or(inj).Fire(chaos.PointDeltaApply); f != nil {
		return chaos.Injected(chaos.PointDeltaApply, f)
	}
	if d == nil {
		return fmt.Errorf("delta: nil base dataset")
	}
	if mini == nil {
		return fmt.Errorf("delta: nil delta mini-corpus")
	}
	if len(mini.Conferences) != 1 {
		return fmt.Errorf("delta: mini-corpus carries %d conferences, want exactly 1", len(mini.Conferences))
	}
	c := mini.Conferences[0]
	if c == nil || c.ID == "" || string(c.ID) != info.ConfID {
		return fmt.Errorf("delta: mini-corpus conference does not match delta identity %q", info.ConfID)
	}
	if c.Year != info.Year {
		return fmt.Errorf("delta: conference %q year %d does not match delta identity year %d", c.ID, c.Year, info.Year)
	}
	if got := Fingerprint(d); got != info.BaseFingerprint {
		return fmt.Errorf("delta: base fingerprint %#x does not match the delta's %#x (%s %d was generated against a different base)",
			got, info.BaseFingerprint, info.ConfID, info.Year)
	}
	if _, ok := d.Conference(c.ID); ok {
		return fmt.Errorf("delta: conference %q already in the base corpus", c.ID)
	}
	papers := make(map[dataset.PaperID]bool, len(d.Papers)+len(mini.Papers))
	for _, p := range d.Papers {
		papers[p.ID] = true
	}
	for _, p := range mini.Papers {
		switch {
		case p == nil || p.ID == "":
			return fmt.Errorf("delta: nil or unidentified paper in the mini-corpus")
		case p.Conf != c.ID:
			return fmt.Errorf("delta: paper %q belongs to %q, not the appended %q", p.ID, p.Conf, c.ID)
		case papers[p.ID]:
			return fmt.Errorf("delta: paper %q already in the corpus", p.ID)
		}
		papers[p.ID] = true
	}
	// Appended papers must not enter base papers' citation candidate
	// pools, and the cohorts frame links each edition to the next year's.
	for _, bc := range d.Conferences {
		switch {
		case bc.Year > c.Year:
			return fmt.Errorf("delta: conference %q (%d) is older than existing %q (%d); citation pools of existing papers would change",
				c.ID, c.Year, bc.ID, bc.Year)
		case bc.Year == c.Year && bc.Name == c.Name:
			return fmt.Errorf("delta: conference %q would be a second %s edition of %d beside %q; cohort retention links one edition a year",
				c.ID, c.Name, c.Year, bc.ID)
		}
	}

	// Split the delta's participants into newcomers and reused base
	// researchers, verifying each reused record against the base instead of
	// trusting the delta file.
	ids := make([]string, 0, len(mini.Persons))
	for id := range mini.Persons {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	newcomers := make([]*dataset.Person, 0, len(ids))
	var reused []dataset.PersonID
	for _, sid := range ids {
		p, _ := mini.Person(dataset.PersonID(sid))
		if p == nil || sid == "" || string(p.ID) != sid {
			return fmt.Errorf("delta: mini-corpus person record %q is missing or misfiled", sid)
		}
		base, ok := d.Person(p.ID)
		if !ok {
			newcomers = append(newcomers, p)
			continue
		}
		if err := samePerson(base, p); err != nil {
			return fmt.Errorf("delta: reused participant %q does not match the base record: %w", p.ID, err)
		}
		reused = append(reused, p.ID)
	}
	// The people frame is sorted by person ID, and an append adds rows only
	// at its tail: so no reused researcher may first participate at c, and
	// every newcomer (minted after the base, by the synthesizer's
	// increasing IDs) must sort after every base person.
	if id, ok := firstParticipation(d, reused); ok {
		return fmt.Errorf("delta: reused participant %q held no role in the base corpus; people frame order not append-compatible", id)
	}
	if len(newcomers) > 0 {
		var last dataset.PersonID
		for id := range d.Persons {
			last = max(last, id)
		}
		if first := newcomers[0].ID; first <= last {
			return fmt.Errorf("delta: newcomer %q does not sort after base person %q; people frame order not append-compatible", first, last)
		}
	}

	// Merge; the checks above rule out every error the dataset's Add
	// methods return. Newcomers first (papers and rosters reference them),
	// then the conference, then its papers in delta order — the same tail
	// order a full resynthesis appends, which is what keeps the merged
	// corpus byte-identical to the resynthesized one.
	for _, p := range newcomers {
		mustMerge(d.AddPerson(p))
	}
	mustMerge(d.AddConference(c))
	for _, p := range mini.Papers {
		mustMerge(d.AddPaper(p))
	}
	if fs != nil {
		fs.AppendConference(d, c.ID)
	}
	return nil
}

// firstParticipation returns the first researcher of reused (in its
// order) who holds no role in any conference of d, if there is one.
func firstParticipation(d *dataset.Dataset, reused []dataset.PersonID) (dataset.PersonID, bool) {
	held := make(map[dataset.PersonID]bool, len(reused))
	for _, id := range reused {
		held[id] = false
	}
	mark := func(ids []dataset.PersonID) {
		for _, id := range ids {
			if _, ok := held[id]; ok {
				held[id] = true
			}
		}
	}
	for _, p := range d.Papers {
		mark(p.Authors)
	}
	for _, c := range d.Conferences {
		for _, r := range dataset.Roles() {
			mark(c.RoleHolders(r)) // nil for authors, marked above
		}
	}
	for _, id := range reused {
		if !held[id] {
			return id, true
		}
	}
	return "", false
}

// mustMerge panics on an error the check phase should have ruled out:
// continuing would leave a half-merged corpus.
func mustMerge(err error) {
	if err != nil {
		panic("delta: merge failed after every check passed: " + err.Error())
	}
}

// samePerson checks the analysis-relevant fields of a reused participant
// record against the base record it claims to be.
func samePerson(base, p *dataset.Person) error {
	switch {
	case base.Name != p.Name:
		return fmt.Errorf("name %q vs base %q", p.Name, base.Name)
	case base.Gender != p.Gender:
		return fmt.Errorf("gender %v vs base %v", p.Gender, base.Gender)
	case base.CountryCode != p.CountryCode:
		return fmt.Errorf("country %q vs base %q", p.CountryCode, base.CountryCode)
	case base.Sector != p.Sector:
		return fmt.Errorf("sector %v vs base %v", p.Sector, base.Sector)
	case base.HasGSProfile != p.HasGSProfile || base.GS != p.GS:
		return fmt.Errorf("google-scholar record differs from base")
	case base.HasS2 != p.HasS2 || base.S2Pubs != p.S2Pubs:
		return fmt.Errorf("semantic-scholar record differs from base")
	}
	return nil
}
