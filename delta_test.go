package repro

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/delta"
	"repro/internal/perffloor"
	"repro/internal/snap"
	"repro/internal/synth"
)

// deltaFix is the shared longitudinal scenario: the flagship SC/ISC
// 2016-2020 corpus as the warm base, SC'21 synthesized as a year delta,
// and the ground truth — a full resynthesis with SC'21 in the calibration
// from the start. Built once; tests that mutate a study build their own
// copy via newBase.
var deltaFix = func() *deltaFixture {
	fx, err := newDeltaFixture(synth.FlagshipSeries(2021), 2021)
	if err != nil {
		panic(err)
	}
	return fx
}()

// newDeltaFixture synthesizes the delta appending SC's year edition to
// cfg's corpus, packs it, and resynthesizes the grown corpus from scratch.
func newDeltaFixture(cfg synth.Config, year int) (*deltaFixture, error) {
	spec, err := synth.YearSpec(cfg, "SC", year)
	if err != nil {
		return nil, err
	}
	yd, base, err := synth.GenerateYearDelta(cfg, spec)
	if err != nil {
		return nil, err
	}
	info, mini, err := delta.Pack(yd, base.Data)
	if err != nil {
		return nil, err
	}
	full := cfg
	full.Confs = append(append([]synth.ConfSpec(nil), cfg.Confs...), spec)
	resynth, err := NewStudyFromConfig(full)
	if err != nil {
		return nil, err
	}
	return &deltaFixture{cfg: cfg, spec: spec, info: info, mini: mini, resynth: resynth}, nil
}

type deltaFixture struct {
	cfg     synth.Config
	spec    synth.ConfSpec
	info    snap.DeltaInfo
	mini    *dataset.Dataset
	resynth *Study
}

// newBase builds a fresh warm study of the base corpus with frames built,
// ready for an ApplyDelta.
func (fx *deltaFixture) newBase(t *testing.T) *Study {
	t.Helper()
	s, err := NewStudyFromConfig(fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Frames()
	return s
}

// snapshotBytes serializes corpus plus frames — the strongest equality
// probe available: byte-equal snapshots mean byte-equal datasets (person
// rows sorted, conference and paper slice order preserved) and byte-equal
// canonical frame encodings (dict tables, column values, tail-masked
// bitmaps).
func snapshotBytes(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaApplyMatchesResynthesis is the tentpole guarantee of the delta
// subsystem: a warm study patched with a year delta is byte-identical to a
// study synthesized from scratch with that year in its calibration — at
// snapshot level (corpus + canonical frame encoding), at report level, and
// at every exhibit query. The default-corpus SC'18 rows are the delta the
// CI e2e job serves; their editions mint persons who hold no role, which
// the delta must carry too.
func TestDeltaApplyMatchesResynthesis(t *testing.T) {
	cases := []struct {
		name string
		cfg  synth.Config
		year int
	}{
		{"default/SC18/seed2021", synth.Default2017(2021), 2018},
		{"default/SC18/seed2022", synth.Default2017(2022), 2018},
		{"flagship/SC21/seed2021", synth.FlagshipSeries(2021), 2021},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx, err := newDeltaFixture(tc.cfg, tc.year)
			if err != nil {
				t.Fatal(err)
			}
			applied := fx.newBase(t)
			if err := applied.ApplyDelta(fx.info, fx.mini); err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			if got, want := delta.Fingerprint(applied.Dataset()), delta.Fingerprint(fx.resynth.Dataset()); got != want {
				t.Errorf("fingerprint %#x after apply, resynthesis has %#x", got, want)
			}

			if got, want := snapshotBytes(t, applied), snapshotBytes(t, fx.resynth); !bytes.Equal(got, want) {
				t.Errorf("snapshot (corpus + frames) differs between delta-applied and resynthesized study")
			}

			var gotRep, wantRep bytes.Buffer
			if err := applied.WriteReport(&gotRep); err != nil {
				t.Fatalf("report on delta-applied study: %v", err)
			}
			if err := fx.resynth.WriteReport(&wantRep); err != nil {
				t.Fatalf("report on resynthesized study: %v", err)
			}
			if !bytes.Equal(gotRep.Bytes(), wantRep.Bytes()) {
				t.Errorf("report differs between delta-applied and resynthesized study")
			}

			for _, eq := range ExhibitQueries() {
				got := runExhibitQuery(t, applied, eq)
				want := runExhibitQuery(t, fx.resynth, eq)
				if !bytes.Equal(got, want) {
					t.Errorf("exhibit query %q differs between delta-applied and resynthesized study", eq.Name)
				}
			}
		})
	}
}

func runExhibitQuery(t *testing.T, s *Study, eq ExhibitQuery) []byte {
	t.Helper()
	res, err := s.Query(eq.Query)
	if err != nil {
		t.Fatalf("%s: %v", eq.Name, err)
	}
	b, err := res.CSV()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExhibitsTakenBeforeDeltaRenderGrownStudy: exhibits read the study
// when they render, so ones looked up before ApplyDelta (through Exhibits
// and Exhibit) render the grown study's bytes afterwards, the bytes of the
// resynthesized study.
func TestExhibitsTakenBeforeDeltaRenderGrownStudy(t *testing.T) {
	applied := deltaFix.newBase(t)
	exhibits := applied.Exhibits()
	flow, ok := applied.Exhibit("ext-citation-flow")
	if !ok {
		t.Fatal("no ext-citation-flow exhibit")
	}
	if err := applied.ApplyDelta(deltaFix.info, deltaFix.mini); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	render := func(ex Exhibit) string {
		var buf bytes.Buffer
		err := ex.Render(&buf)
		return fmt.Sprintf("%s(err %v)", buf.String(), err)
	}
	for _, ex := range append(exhibits, flow) {
		want, ok := deltaFix.resynth.Exhibit(ex.ID)
		if !ok {
			t.Fatalf("resynthesized study has no exhibit %q", ex.ID)
		}
		if got, want := render(ex), render(want); got != want {
			t.Errorf("%s taken before the apply renders\n%s\nwant the grown study's\n%s", ex.ID, got, want)
		}
	}
}

// TestDeltaApplyColdFrames covers the lazy path: applying a delta before
// frames are built must defer to the lazy builder over the merged corpus
// and still match the resynthesis.
func TestDeltaApplyColdFrames(t *testing.T) {
	s, err := NewStudyFromConfig(deltaFix.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Frames() call: the delta merges the dataset only.
	if err := s.ApplyDelta(deltaFix.info, deltaFix.mini); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if got, want := snapshotBytes(t, s), snapshotBytes(t, deltaFix.resynth); !bytes.Equal(got, want) {
		t.Errorf("snapshot differs between cold-frames delta-applied and resynthesized study")
	}
}

// TestDeltaApplyDeterministicAcrossGOMAXPROCS applies the delta and runs
// every exhibit query at GOMAXPROCS 1 and 8, demanding byte-identical
// output — the queryrepro determinism contract extended to patched frames.
func TestDeltaApplyDeterministicAcrossGOMAXPROCS(t *testing.T) {
	applied := deltaFix.newBase(t)
	if err := applied.ApplyDelta(deltaFix.info, deltaFix.mini); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	run := func() map[string][]byte {
		out := make(map[string][]byte)
		for _, eq := range ExhibitQueries() {
			out[eq.Name] = runExhibitQuery(t, applied, eq)
		}
		return out
	}
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(8)
	parallel := run()
	runtime.GOMAXPROCS(prev)
	for name, want := range serial {
		if !bytes.Equal(parallel[name], want) {
			t.Errorf("%s: output differs between GOMAXPROCS=1 and 8 on a delta-applied study", name)
		}
	}
}

// TestDeltaApplyRejectsWrongBase proves the fingerprint guard: the SC'21
// delta generated against the flagship corpus must refuse a different
// corpus, leaving it untouched.
func TestDeltaApplyRejectsWrongBase(t *testing.T) {
	other, err := NewStudy(7)
	if err != nil {
		t.Fatal(err)
	}
	other.Frames()
	before := snapshotBytes(t, other)
	if err := other.ApplyDelta(deltaFix.info, deltaFix.mini); err == nil {
		t.Fatal("ApplyDelta accepted a delta generated against a different base")
	}
	if !bytes.Equal(before, snapshotBytes(t, other)) {
		t.Errorf("rejected delta mutated the study")
	}
}

// TestDeltaApplyRejectsDoubleApply proves a delta cannot be absorbed
// twice: after one apply the fingerprint has moved on, and the rejected
// re-apply leaves the study's bytes as they were.
func TestDeltaApplyRejectsDoubleApply(t *testing.T) {
	applied := deltaFix.newBase(t)
	if err := applied.ApplyDelta(deltaFix.info, deltaFix.mini); err != nil {
		t.Fatalf("first ApplyDelta: %v", err)
	}
	before := snapshotBytes(t, applied)
	if err := applied.ApplyDelta(deltaFix.info, deltaFix.mini); err == nil {
		t.Fatal("second ApplyDelta of the same delta succeeded")
	}
	if !bytes.Equal(before, snapshotBytes(t, applied)) {
		t.Errorf("rejected re-apply mutated the study")
	}
}

// TestDeltaRefusalIndependentOfLazyState: whether a delta is accepted
// depends on the delta and the base corpus alone, never on what the study
// has built lazily. Four refusals — a delta stamped for another base, a
// delta applied twice, an edition older than the base's latest, a newcomer
// whose ID sorts among the base's — are each tried on three bases: frames
// built; frames unbuilt (the "graph memoized" base, named for when the
// study memoized its citation graph beside unbuilt frames); opened from
// snapshot bytes. Every cell must refuse and leave the study as a twin
// built the same way: the same conference, paper and person counts and
// the same snapshot bytes (compared on a twin rather than before the
// apply, because taking a snapshot builds frames).
func TestDeltaRefusalIndependentOfLazyState(t *testing.T) {
	spec, err := synth.YearSpec(deltaFix.cfg, "SC", 2015)
	if err != nil {
		t.Fatal(err)
	}
	yd, baseCorpus, err := synth.GenerateYearDelta(deltaFix.cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	olderInfo, olderMini, err := delta.Pack(yd, baseCorpus.Data)
	if err != nil {
		t.Fatal(err)
	}
	wrongInfo := deltaFix.info
	wrongInfo.BaseFingerprint ^= 1
	misorderedMini := withEarlyNewcomer(t, baseCorpus.Data, deltaFix.mini)

	base := deltaBaseSnapshot()
	bases := []struct {
		name string
		open func(t *testing.T) *Study
	}{
		{"frames built", func(t *testing.T) *Study { return deltaFix.newBase(t) }},
		{"graph memoized", func(t *testing.T) *Study {
			s, err := NewStudyFromConfig(deltaFix.cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"from snapshot", func(t *testing.T) *Study {
			s, err := openSnapshot(base)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	cases := []struct {
		name string
		grow bool // apply deltaFix's delta first
		info snap.DeltaInfo
		mini *dataset.Dataset
	}{
		{"wrong base", false, wrongInfo, deltaFix.mini},
		{"double apply", true, deltaFix.info, deltaFix.mini},
		{"older year", false, olderInfo, olderMini},
		{"newcomer sorts before base", false, deltaFix.info, misorderedMini},
	}
	for _, tc := range cases {
		for _, b := range bases {
			t.Run(tc.name+"/"+b.name, func(t *testing.T) {
				s, twin := b.open(t), b.open(t)
				if tc.grow {
					for _, st := range []*Study{s, twin} {
						if err := st.ApplyDelta(deltaFix.info, deltaFix.mini); err != nil {
							t.Fatalf("first ApplyDelta: %v", err)
						}
					}
				}
				if err := s.ApplyDelta(tc.info, tc.mini); err == nil {
					t.Fatal("ApplyDelta accepted the delta")
				}
				got, want := s.Dataset(), twin.Dataset()
				if len(got.Conferences) != len(want.Conferences) || len(got.Papers) != len(want.Papers) || len(got.Persons) != len(want.Persons) {
					t.Errorf("refused delta changed the counts: %d conferences, %d papers, %d persons; want %d, %d, %d",
						len(got.Conferences), len(got.Papers), len(got.Persons),
						len(want.Conferences), len(want.Papers), len(want.Persons))
				}
				if !bytes.Equal(snapshotBytes(t, s), snapshotBytes(t, twin)) {
					t.Error("refused delta changed the snapshot bytes")
				}
			})
		}
	}
}

// withEarlyNewcomer returns a copy of mini in which one newcomer to base
// who authors a paper of the delta is filed under an ID that sorts
// between base person IDs, in its record, its authorships and its rosters.
func withEarlyNewcomer(t *testing.T, base, mini *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	var from dataset.PersonID
	for _, p := range mini.Papers {
		for _, id := range p.Authors {
			if _, ok := base.Person(id); !ok && from == "" {
				from = id
			}
		}
	}
	if from == "" {
		t.Fatal("no newcomer authors a paper of the delta")
	}
	first := from
	for id := range base.Persons {
		first = min(first, id)
	}
	to := first + "x" // sorts just after the base's first ID
	if _, ok := base.Person(to); ok {
		t.Fatalf("%q is a base person", to)
	}
	rename := func(ids []dataset.PersonID) []dataset.PersonID {
		out := slices.Clone(ids)
		for i, id := range out {
			if id == from {
				out[i] = to
			}
		}
		return out
	}
	out := dataset.New()
	for _, p := range mini.Persons {
		if p.ID == from {
			cp := *p
			cp.ID = to
			p = &cp
		}
		if err := out.AddPerson(p); err != nil {
			t.Fatal(err)
		}
	}
	c := *mini.Conferences[0]
	c.PCChairs, c.PCMembers, c.Keynotes = rename(c.PCChairs), rename(c.PCMembers), rename(c.Keynotes)
	c.Panelists, c.SessionChairs = rename(c.Panelists), rename(c.SessionChairs)
	if err := out.AddConference(&c); err != nil {
		t.Fatal(err)
	}
	for _, p := range mini.Papers {
		cp := *p
		cp.Authors = rename(p.Authors)
		if err := out.AddPaper(&cp); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestDeltaFileRoundTrip writes the delta through the snap container and
// applies it from disk, proving the file path end to end.
func TestDeltaFileRoundTrip(t *testing.T) {
	yd, base, err := synth.GenerateYearDelta(deltaFix.cfg, deltaFix.spec)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/" + snap.DeltaFileName("flagship", 2021, 2021)
	if err := delta.WriteFile(path, yd, base.Data); err != nil {
		t.Fatalf("delta.WriteFile: %v", err)
	}
	applied := deltaFix.newBase(t)
	if err := applied.ApplyDeltaFile(path); err != nil {
		t.Fatalf("ApplyDeltaFile: %v", err)
	}
	if got, want := snapshotBytes(t, applied), snapshotBytes(t, deltaFix.resynth); !bytes.Equal(got, want) {
		t.Errorf("snapshot differs between file-applied delta and resynthesized study")
	}
}

// BenchmarkDeltaApply measures applying the flagship SC'21 delta to a
// warm study whose frames are built. Opening each base study from the
// snapshot bytes deltaBaseSnapshot holds, and collecting its garbage, is
// set-up outside the timed window.
func BenchmarkDeltaApply(b *testing.B) {
	base := deltaBaseSnapshot()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		s, err := openSnapshot(base)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		if err := s.ApplyDelta(deltaFix.info, deltaFix.mini); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
}

// deltaBaseSnapshot returns the snapshot bytes (corpus, frames, citation
// graph) of deltaFix's base corpus, built on first use.
var deltaBaseSnapshot = sync.OnceValue(func() []byte {
	s, err := NewStudyFromConfig(deltaFix.cfg)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// Work budgets of one BenchmarkDeltaApply apply (flagship base opened
// from a snapshot, SC'21 delta), checked by TestDeltaApplyBeatsResynthesis
// beside its timing bound. Measured on linux/amd64 with Go 1.24 as 1,936
// allocations and 3.14 MB per apply; the budgets leave about 5% headroom
// on each.
const (
	deltaApplyAllocs = 2033
	deltaApplyBytes  = 3_300_000
)

// TestDeltaApplyBeatsResynthesis is the incremental-maintenance perf
// floor: patching a warm study with one year must be at least 10x faster
// than resynthesizing the grown corpus and rebuilding its frames, in the
// medians of alternating rounds (perffloor.MedianResults). The median
// apply must also stay within its work budgets.
func TestDeltaApplyBeatsResynthesis(t *testing.T) {
	if perffloor.RaceEnabled {
		t.Skip("timing gate disabled under the race detector")
	}
	if testing.Short() {
		t.Skip("timing gate disabled with -short")
	}
	full := deltaFix.cfg
	full.Confs = append(append([]synth.ConfSpec(nil), deltaFix.cfg.Confs...), deltaFix.spec)

	apply, resynth := perffloor.MedianResults(t, BenchmarkDeltaApply, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := NewStudyFromConfig(full)
			if err != nil {
				b.Fatal(err)
			}
			s.Frames()
		}
	})
	applyNs, resynthNs := float64(apply.NsPerOp()), float64(resynth.NsPerOp())
	t.Logf("delta apply: %.2fms, %d allocs, %d B; full resynthesis + frame build: %.2fms (%.1fx)",
		applyNs/1e6, apply.AllocsPerOp(), apply.AllocedBytesPerOp(), resynthNs/1e6, resynthNs/applyNs)
	if applyNs*10 > resynthNs {
		t.Errorf("delta apply (%.2fms) is not 10x faster than resynthesis (%.2fms)",
			applyNs/1e6, resynthNs/1e6)
	}
	if n := apply.AllocsPerOp(); n > deltaApplyAllocs {
		t.Errorf("delta apply allocates %d times per apply, budget %d", n, deltaApplyAllocs)
	}
	if n := apply.AllocedBytesPerOp(); n > deltaApplyBytes {
		t.Errorf("delta apply allocates %d B per apply, budget %d B", n, deltaApplyBytes)
	}
}
