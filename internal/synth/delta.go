package synth

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dataset"
)

// YearDelta is one conference-year's standalone contribution to a corpus:
// the new conference, its papers, and the full record of every person the
// grown corpus holds that the delta needs — each participant, whether
// minted for this edition or a reused base researcher, plus every person
// minted while synthesizing this edition even if seated in no role. The
// delta is therefore self-contained (a delta snapshot's mini-corpus passes
// dataset.Validate on its own), the apply path can verify reused records
// instead of trusting them, and the applied corpus holds exactly the
// persons a resynthesis does.
type YearDelta struct {
	Conf    *dataset.Conference
	Papers  []*dataset.Paper
	Persons []*dataset.Person // participants and unseated newcomers, sorted by ID
}

// YearSpec derives the calibration for a new edition of an existing series
// by cloning the series' latest spec in cfg: same quotas, policies and FAR
// targets, with the ID, year and date advanced. It is how `synthgen
// -delta-year N` extends a corpus without a hand-written spec.
func YearSpec(cfg Config, series string, year int) (ConfSpec, error) {
	var latest *ConfSpec
	for i := range cfg.Confs {
		s := &cfg.Confs[i]
		if s.Name != series {
			continue
		}
		if s.Year == year {
			return ConfSpec{}, fmt.Errorf("synth: %s %d already in the corpus", series, year)
		}
		if latest == nil || s.Year > latest.Year {
			latest = s
		}
	}
	if latest == nil {
		return ConfSpec{}, fmt.Errorf("synth: no %q edition in the corpus to extend", series)
	}
	spec := *latest
	spec.Year = year
	spec.ID = dataset.ConfID(fmt.Sprintf("%s%02d", series, year%100))
	spec.Date = time.Date(year, latest.Date.Month(), latest.Date.Day(), 0, 0, 0, 0, time.UTC)
	for i := range cfg.Confs {
		if cfg.Confs[i].ID == spec.ID {
			return ConfSpec{}, fmt.Errorf("synth: derived conference ID %q already in the corpus", spec.ID)
		}
	}
	return spec, nil
}

// GenerateYearDelta synthesizes the contribution of one appended
// conference edition, plus the base corpus it extends. It exploits a
// structural property of Generate: conference synthesis is sequential over
// cfg.Confs and nothing before the appended spec consumes RNG state that
// depends on it, so Generate(cfg with spec appended) reproduces the base
// corpus byte-identically as a prefix and everything attributable to the
// new edition is exactly the suffix. The returned delta therefore composes
// with the base into the same corpus a full resynthesis would produce —
// the byte-identity guarantee the delta workload is built on.
func GenerateYearDelta(cfg Config, spec ConfSpec) (*YearDelta, *Corpus, error) {
	base, err := Generate(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("synth: generating base corpus: %w", err)
	}
	full := cfg
	full.Confs = append(append([]ConfSpec(nil), cfg.Confs...), spec)
	if full.OutlierConf != "" {
		if _, ok := base.Data.Conference(full.OutlierConf); !ok {
			return nil, nil, fmt.Errorf("synth: outlier conference %q not in base corpus", full.OutlierConf)
		}
	}
	grown, err := Generate(full)
	if err != nil {
		return nil, nil, fmt.Errorf("synth: generating grown corpus: %w", err)
	}

	// Sanity-check the prefix property before extracting the suffix: every
	// base conference must reappear unchanged in position.
	if len(grown.Data.Conferences) != len(base.Data.Conferences)+1 {
		return nil, nil, fmt.Errorf("synth: grown corpus has %d conferences, want %d",
			len(grown.Data.Conferences), len(base.Data.Conferences)+1)
	}
	for i, bc := range base.Data.Conferences {
		if grown.Data.Conferences[i].ID != bc.ID {
			return nil, nil, fmt.Errorf("synth: grown corpus conference %d is %q, base has %q; prefix identity violated",
				i, grown.Data.Conferences[i].ID, bc.ID)
		}
	}

	c, ok := grown.Data.Conference(spec.ID)
	if !ok {
		return nil, nil, fmt.Errorf("synth: grown corpus is missing appended conference %q", spec.ID)
	}
	delta := &YearDelta{
		Conf:   c,
		Papers: append([]*dataset.Paper(nil), grown.Data.PapersOf(c.ID)...),
	}
	carry := make(map[dataset.PersonID]bool)
	for id := range grown.Data.Persons {
		if _, ok := base.Data.Person(id); !ok {
			carry[id] = true
		}
	}
	for _, p := range delta.Papers {
		for _, id := range p.Authors {
			carry[id] = true
		}
	}
	for _, r := range dataset.Roles() {
		for _, id := range c.RoleHolders(r) {
			carry[id] = true
		}
	}
	ids := make([]string, 0, len(carry))
	for id := range carry {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	delta.Persons = make([]*dataset.Person, 0, len(ids))
	for _, sid := range ids {
		p, ok := grown.Data.Person(dataset.PersonID(sid))
		if !ok {
			return nil, nil, fmt.Errorf("synth: appended conference references unknown person %q", sid)
		}
		delta.Persons = append(delta.Persons, p)
	}
	return delta, base, nil
}

// MiniCorpus assembles the delta's self-contained dataset — the form a
// delta snapshot's persons/conferences/papers sections carry.
func (yd *YearDelta) MiniCorpus() (*dataset.Dataset, error) {
	d := dataset.New()
	for _, p := range yd.Persons {
		if err := d.AddPerson(p); err != nil {
			return nil, err
		}
	}
	if err := d.AddConference(yd.Conf); err != nil {
		return nil, err
	}
	for _, p := range yd.Papers {
		if err := d.AddPaper(p); err != nil {
			return nil, err
		}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("synth: delta mini-corpus failed validation: %w", err)
	}
	return d, nil
}
