package delta

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/snap"
	"repro/internal/synth"
)

// fuzzConfig is the flagship series cut to its 2016 and 2017 editions and
// scaled down to a few papers each, so one fuzz execution decodes, patches
// and re-encodes a corpus of a few hundred rows.
func fuzzConfig() synth.Config {
	cfg := synth.FlagshipSeries(2021)
	cfg.Confs = cfg.Confs[:4]
	for i := range cfg.Confs {
		c := &cfg.Confs[i]
		c.Papers, c.AuthorSlots = 6, 24
		c.PCMembers = synth.RoleQuota{Total: 12, Women: 3}
		c.Panelists = synth.RoleQuota{Total: 4, Women: 1}
		c.SessionChairs = synth.RoleQuota{Total: 4, Women: 1}
	}
	return cfg
}

// FuzzDeltaApply perturbs a small valid delta — the SC'18 edition of
// fuzzConfig — in its year, its conference ID, one newcomer's ID and one
// paper's conference, and applies it to two copies of the base, both
// decoded from one set of snapshot bytes: one with its frames, one
// without. Both copies must accept or both refuse; a refusal must leave
// the base's snapshot bytes as they were; two acceptances must encode to
// the same bytes (the frameless copy's frames built afterwards); nothing
// may panic.
func FuzzDeltaApply(f *testing.F) {
	cfg := fuzzConfig()
	spec, err := synth.YearSpec(cfg, "SC", 2018)
	if err != nil {
		f.Fatal(err)
	}
	yd, baseCorpus, err := synth.GenerateYearDelta(cfg, spec)
	if err != nil {
		f.Fatal(err)
	}
	info, mini, err := Pack(yd, baseCorpus.Data)
	if err != nil {
		f.Fatal(err)
	}
	base := encode(f, baseCorpus.Data, query.NewFrameSet(baseCorpus.Data))
	var newcomers []dataset.PersonID
	for id := range mini.Persons {
		if _, ok := baseCorpus.Data.Person(id); !ok {
			newcomers = append(newcomers, id)
		}
	}
	slices.Sort(newcomers)
	if len(newcomers) == 0 {
		f.Fatal("the fuzz delta has no newcomers")
	}
	baseFirst := newcomers[0]
	for id := range baseCorpus.Data.Persons {
		baseFirst = min(baseFirst, id)
	}
	last := newcomers[len(newcomers)-1]

	for _, seed := range []struct {
		year      int
		conf      string
		newcomer  int
		newID     string
		paper     int
		paperConf string
	}{
		{2018, "SC18", -1, "", -1, ""},                     // as generated
		{2019, "SC19", -1, "", -1, ""},                     // a later year
		{2016, "SC18", -1, "", -1, ""},                     // older than the base's latest
		{2017, "SC18", -1, "", -1, ""},                     // a second SC edition of 2017
		{2018, "SC17", -1, "", -1, ""},                     // a base conference's ID
		{2018, "", -1, "", -1, ""},                         // no ID
		{2018, "SC2018", -1, "", -1, ""},                   // another new ID
		{2018, "SC18", 0, string(baseFirst) + "x", -1, ""}, // a newcomer among the base IDs
		{2018, "SC18", 0, string(baseFirst), -1, ""},       // a newcomer filed as a base person
		{2018, "SC18", 0, string(last) + "z", -1, ""},      // a newcomer renamed past the others
		{2018, "SC18", 0, "", -1, ""},                      // a newcomer without an ID
		{2018, "SC18", -1, "", 0, "SC17"},                  // a paper of a base conference
		{2018, "SC18", -1, "", 2, ""},                      // a paper of no conference
	} {
		f.Add(seed.year, seed.conf, seed.newcomer, seed.newID, seed.paper, seed.paperConf)
	}
	f.Fuzz(func(t *testing.T, year int, conf string, newcomer int, newID string, paper int, paperConf string) {
		var from dataset.PersonID
		if newcomer >= 0 && newcomer < len(newcomers) {
			from = newcomers[newcomer]
			if _, taken := mini.Persons[dataset.PersonID(newID)]; taken && dataset.PersonID(newID) != from {
				t.Skip("a mini-corpus cannot file two records under one ID")
			}
		}
		pinfo, pmini := perturb(info, mini, year, conf, from, dataset.PersonID(newID), paper, paperConf)

		withFrames, err := snap.Read(base, snap.Full, nil)
		if err != nil {
			t.Fatal(err)
		}
		frameless, err := snap.Read(base, snap.Full, nil)
		if err != nil {
			t.Fatal(err)
		}
		errA := Apply(withFrames.Corpus, withFrames.Frames, pinfo, pmini, nil)
		errB := Apply(frameless.Corpus, nil, pinfo, pmini, nil)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("with frames: %v; without frames: %v", errA, errB)
		}
		gotA := encode(t, withFrames.Corpus, withFrames.Frames)
		gotB := encode(t, frameless.Corpus, query.NewFrameSet(frameless.Corpus))
		switch {
		case errA != nil && !bytes.Equal(gotA, base):
			t.Fatalf("refusal (%v) changed the base with frames", errA)
		case errA != nil && !bytes.Equal(gotB, base):
			t.Fatalf("refusal (%v) changed the base without frames", errB)
		case errA == nil && !bytes.Equal(gotA, gotB):
			t.Fatal("the patched frames differ from frames built over the merged corpus")
		}
	})
}

// perturb returns a copy of the delta with its conference's ID and year
// set, person from (when non-empty) filed as to in its record, its
// authorships and its rosters, and the paper at index paper (when in
// range) moved to conference paperConf. The copy is indexed but not
// validated, so it can carry what no generator would write.
func perturb(info snap.DeltaInfo, mini *dataset.Dataset, year int, conf string, from, to dataset.PersonID, paper int, paperConf string) (snap.DeltaInfo, *dataset.Dataset) {
	info.ConfID, info.Year = conf, year
	rename := func(ids []dataset.PersonID) []dataset.PersonID {
		out := slices.Clone(ids)
		for i, id := range out {
			if from != "" && id == from {
				out[i] = to
			}
		}
		return out
	}
	c := *mini.Conferences[0]
	c.ID, c.Year = dataset.ConfID(conf), year
	c.PCChairs, c.PCMembers, c.Keynotes = rename(c.PCChairs), rename(c.PCMembers), rename(c.Keynotes)
	c.Panelists, c.SessionChairs = rename(c.Panelists), rename(c.SessionChairs)
	out := &dataset.Dataset{
		Conferences: []*dataset.Conference{&c},
		Persons:     make(map[dataset.PersonID]*dataset.Person, len(mini.Persons)),
	}
	for id, p := range mini.Persons {
		if from != "" && id == from {
			cp := *p
			cp.ID = to
			id, p = to, &cp
		}
		out.Persons[id] = p
	}
	for i, p := range mini.Papers {
		cp := *p
		cp.Conf, cp.Authors = c.ID, rename(p.Authors)
		if i == paper {
			cp.Conf = dataset.ConfID(paperConf)
		}
		out.Papers = append(out.Papers, &cp)
	}
	out.Reindex()
	return info, out
}

// encode writes a corpus and its frames as snapshot bytes.
func encode(tb testing.TB, d *dataset.Dataset, fs *query.FrameSet) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := snap.Write(&buf, snap.Snapshot{Corpus: d, Frames: fs}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
