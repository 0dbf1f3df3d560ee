// Package delta is the longitudinal-snapshot subsystem: it packs one
// conference-year's contribution (synthesized by synth.GenerateYearDelta)
// into the snap delta container, and applies a decoded delta to a loaded
// study — merging the mini-corpus into the dataset and patching the
// columnar FrameSet in place — so appending a year to a warm study costs
// O(new rows) instead of a full resynthesis and frame rebuild.
//
// Apply is the one apply entry point. Its chaos injector (nil in
// production) fires at the delta.apply point before anything is checked.
// Then the apply is guarded three ways before a single row moves: the
// delta's base fingerprint must match the corpus it is applied to, the
// mini-corpus must be internally consistent with the delta identity, and
// every participant record the delta reuses must match the base record it
// claims to be. Failures after the dataset merge begins (they require a
// frame set inconsistent with the corpus, i.e. a bug or a hand-edited
// snapshot) leave the inputs partially mutated — callers that need
// atomicity apply to clones and discard on error, as
// repro.(*Study).ApplyDelta does.
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
// corpus. See the package comment for the atomicity contract.
//
// inj (nil means none) is consulted at the delta.apply point first —
// after the mini-corpus is decoded, before the base is touched — so an
// injected fault always leaves the base exactly as it was.
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
	if string(c.ID) != info.ConfID {
		return fmt.Errorf("delta: mini-corpus conference %q does not match delta identity %q", c.ID, info.ConfID)
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
	basePapers := make(map[dataset.PaperID]bool, len(d.Papers))
	for _, p := range d.Papers {
		basePapers[p.ID] = true
	}
	for _, p := range mini.Papers {
		if basePapers[p.ID] {
			return fmt.Errorf("delta: paper %q already in the base corpus", p.ID)
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
	for _, sid := range ids {
		p, _ := mini.Person(dataset.PersonID(sid))
		base, ok := d.Person(p.ID)
		if !ok {
			newcomers = append(newcomers, p)
			continue
		}
		if err := samePerson(base, p); err != nil {
			return fmt.Errorf("delta: reused participant %q does not match the base record: %w", p.ID, err)
		}
	}

	// Merge. Newcomers first (papers and rosters reference them), then the
	// conference, then its papers in delta order — the same tail order a
	// full resynthesis appends, which is what keeps the merged corpus
	// byte-identical to the resynthesized one.
	for _, p := range newcomers {
		if err := d.AddPerson(p); err != nil {
			return fmt.Errorf("delta: merging participant %q: %w", p.ID, err)
		}
	}
	if err := d.AddConference(c); err != nil {
		return fmt.Errorf("delta: merging conference %q: %w", c.ID, err)
	}
	for _, p := range mini.Papers {
		if err := d.AddPaper(p); err != nil {
			return fmt.Errorf("delta: merging paper %q: %w", p.ID, err)
		}
	}
	if fs != nil {
		if err := fs.AppendConference(d, c.ID); err != nil {
			return fmt.Errorf("delta: patching frames for %q: %w", c.ID, err)
		}
	}
	return nil
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
