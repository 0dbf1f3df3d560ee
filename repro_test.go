package repro

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/collab"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/stats"
	"repro/internal/synth"
)

// study is the shared end-to-end fixture (deterministic per seed).
var study = func() *Study {
	s, err := NewStudy(2021)
	if err != nil {
		panic(err)
	}
	return s
}()

func TestEndToEndHeadline(t *testing.T) {
	// The paper's abstract in one test: women are about 10% of HPC
	// authors, representation roughly doubles on PCs, and the flagship
	// venues sit below the field average.
	far := study.FAR()
	if r := far.Overall.Ratio(); r < 0.08 || r > 0.12 {
		t.Errorf("overall FAR %.4f (paper: 0.099)", r)
	}
	pc, err := study.PC()
	if err != nil {
		t.Fatal(err)
	}
	if pc.Overall.Ratio() < 1.5*far.Overall.Ratio() {
		t.Errorf("PC ratio %.4f not well above FAR %.4f", pc.Overall.Ratio(), far.Overall.Ratio())
	}
	for _, row := range far.PerConf {
		if row.Conf == study.SCID() && row.Ratio.Ratio() >= far.Overall.Ratio() {
			t.Errorf("SC FAR %.4f not below overall", row.Ratio.Ratio())
		}
	}
}

func TestWriteReportCoversEveryExhibit(t *testing.T) {
	var b bytes.Buffer
	if err := study.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table 1", "Fig 1", "§3.1", "§3.2", "§3.3", "§3.4", "§4.1",
		"Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6",
		"Table 2", "Fig 7", "Table 3", "Fig 8", "Sensitivity",
		"collaboration patterns", "multiplicity", "trend regressions",
		"Conference profiles", "Google Scholar linkage",
		"reception over time", "Kolmogorov-Smirnov",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
	if len(out) < 5000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

// TestExhibitsEnumeration pins the contract the serving layer and CSV
// exporter key on: stable, unique, URL-safe IDs; titles that appear
// verbatim as report section headings; lookup by ID; and the two extra
// harvest exhibits appearing exactly on harvested studies.
func TestExhibitsEnumeration(t *testing.T) {
	exhibits := study.Exhibits()
	if len(exhibits) < 26 {
		t.Fatalf("only %d exhibits enumerated", len(exhibits))
	}
	var report bytes.Buffer
	if err := study.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(exhibits))
	for _, ex := range exhibits {
		if seen[ex.ID] {
			t.Errorf("duplicate exhibit ID %q", ex.ID)
		}
		seen[ex.ID] = true
		if ex.ID == "" || strings.ContainsAny(ex.ID, " /%?#") {
			t.Errorf("exhibit ID %q is not URL-safe", ex.ID)
		}
		if !strings.Contains(report.String(), "========== "+ex.Title+" ==========") {
			t.Errorf("exhibit %q title %q not a report section heading", ex.ID, ex.Title)
		}
		got, ok := study.Exhibit(ex.ID)
		if !ok || got.Title != ex.Title {
			t.Errorf("Exhibit(%q) lookup failed", ex.ID)
		}
	}
	if _, ok := study.Exhibit("no-such-exhibit"); ok {
		t.Error("Exhibit invented an ID")
	}
	if seen["harvest"] || seen["coverage-sensitivity"] {
		t.Error("unharvested study enumerates harvest exhibits")
	}
	if _, ok := study.Exhibit("harvest"); ok {
		t.Error("unharvested study resolves the harvest exhibit by ID")
	}
	harvested, err := NewHarvestedStudy(synth.Default2017(11), "clean", HarvestHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(harvested.Exhibits()); got != len(exhibits)+2 {
		t.Errorf("harvested study has %d exhibits, want %d", got, len(exhibits)+2)
	}
	if _, ok := harvested.Exhibit("coverage-sensitivity"); !ok {
		t.Error("harvested study missing coverage-sensitivity exhibit")
	}
}

// TestReportDeterministicAcrossGOMAXPROCS is the regression test behind the
// artifact's headline promise: the rendered study is byte-identical for a
// given seed at any parallelism. It is golden-free — each report is rendered
// fresh under a different GOMAXPROCS and compared against the other, so a
// nondeterminism bug (map-order leak, wall-clock read, scheduler-dependent
// float summation) fails the diff without any fixture to go stale. Both the
// directly generated corpus and the concurrent harvest path (a 4-goroutine
// worker pool whose interleaving genuinely changes with GOMAXPROCS) are
// covered.
func TestReportDeterministicAcrossGOMAXPROCS(t *testing.T) {
	render := func(procs int, build func() (*Study, error)) []byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		s, err := build()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		var b bytes.Buffer
		if err := s.WriteReport(&b); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return b.Bytes()
	}
	paths := []struct {
		name  string
		build func() (*Study, error)
	}{
		{"generated", func() (*Study, error) { return NewStudy(2021) }},
		{"harvested", func() (*Study, error) { return NewHarvestedStudy(synth.Default2017(2021), "flaky", HarvestHooks{}) }},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			serial := render(1, path.build)
			parallel := render(8, path.build)
			if bytes.Equal(serial, parallel) {
				return
			}
			line := 1
			for i := range serial {
				if i >= len(parallel) || serial[i] != parallel[i] {
					break
				}
				if serial[i] == '\n' {
					line++
				}
			}
			t.Errorf("report differs between GOMAXPROCS=1 (%d bytes) and GOMAXPROCS=8 (%d bytes); first divergence at line %d",
				len(serial), len(parallel), line)
		})
	}
}

func TestSaveLoadRoundTripPreservesAnalyses(t *testing.T) {
	dir := t.TempDir()
	if err := study.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := study.FAR()
	b := loaded.FAR()
	if a.Overall != b.Overall || a.TotalSlots != b.TotalSlots || a.UniqueN != b.UniqueN {
		t.Errorf("FAR diverged after round trip: %+v vs %+v", a, b)
	}
	pcA, err := study.PC()
	if err != nil {
		t.Fatal(err)
	}
	pcB, err := loaded.PC()
	if err != nil {
		t.Fatal(err)
	}
	if pcA.Overall != pcB.Overall || pcA.SlotsTotal != pcB.SlotsTotal {
		t.Errorf("PC analysis diverged after round trip")
	}
	if loaded.SCID() != study.SCID() {
		t.Errorf("SCID diverged: %s vs %s", loaded.SCID(), study.SCID())
	}
}

func TestLoadRejectsMissingDir(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("empty directory loaded")
	}
}

func TestFromDataset(t *testing.T) {
	if _, err := FromDataset(nil); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := FromDataset(dataset.New()); err == nil {
		t.Error("empty dataset accepted")
	}
	s, err := FromDataset(study.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	if s.SCID() != study.SCID() {
		t.Error("SC detection diverged")
	}
}

func TestFlagshipStudyTrend(t *testing.T) {
	fs, err := NewStudyFromConfig(synth.FlagshipSeries(9))
	if err != nil {
		t.Fatal(err)
	}
	points := fs.Trend()
	if len(points) != 10 {
		t.Fatalf("%d trend points", len(points))
	}
	sc2017 := false
	for _, p := range points {
		if p.Series == "SC" && p.Year == 2017 {
			sc2017 = true
		}
	}
	if !sc2017 {
		t.Error("SC 2017 missing from flagship trend")
	}
	if fs.SCID() != "SC17" {
		t.Errorf("flagship SCID = %s", fs.SCID())
	}
}

func TestSensitivityStableHeadline(t *testing.T) {
	r, err := study.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: forcing all unknowns does not flip observations.
	// The strong effects (PC vs authors, novice gap) must never flip; the
	// marginal ones may drift in p but not in direction.
	for i, obs := range r.Baseline {
		if signOf(r.AllWomen[i].Effect) != signOf(obs.Effect) && obs.Significant {
			t.Errorf("significant observation %q flipped direction under all-women", obs.Name)
		}
		if signOf(r.AllMen[i].Effect) != signOf(obs.Effect) && obs.Significant {
			t.Errorf("significant observation %q flipped direction under all-men", obs.Name)
		}
	}
}

func signOf(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

func TestStudyAnalysesAgreeWithCore(t *testing.T) {
	// The facade must be a thin delegation layer: spot-check it against a
	// direct core call.
	if got, want := study.FAR().Overall, core.AuthorFAR(study.Dataset()).Overall; got != want {
		t.Errorf("FAR facade diverges: %v vs %v", got, want)
	}
}

func TestExtendedStudySubfields(t *testing.T) {
	ext, err := NewStudyFromConfig(synth.ExtendedSystems(11))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ext.Subfields()
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Rows) < 8 {
		t.Fatalf("%d subfields", len(sub.Rows))
	}
	if !(sub.HPC.Ratio() < sub.Others.Ratio()) {
		t.Errorf("HPC %.4f not below other subfields %.4f", sub.HPC.Ratio(), sub.Others.Ratio())
	}
	// The all-HPC core corpus reports not-applicable.
	if _, err := study.Subfields(); err == nil {
		t.Error("single-subfield corpus should not support the comparison")
	}
	// The extended report renders end-to-end.
	var b bytes.Buffer
	if err := ext.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Error("empty extended report")
	}
}

func TestFacadeExtensions(t *testing.T) {
	rep, err := ReplicateDefault(2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicates != 2 || len(rep.Metrics) == 0 {
		t.Errorf("ReplicateDefault: %+v", rep)
	}
}

func TestCorpusGenderAccountingConsistent(t *testing.T) {
	// Cross-module invariant: CountGenders over all roles never counts
	// more women than known-gender researchers exist.
	d := study.Dataset()
	totalWomen := 0
	for _, p := range d.Persons {
		if p.Gender == gender.Female {
			totalWomen++
		}
	}
	unique := d.CountGenders(d.UniqueAuthorsAndPC())
	if unique.Women > totalWomen {
		t.Errorf("unique role women %d exceeds corpus women %d", unique.Women, totalWomen)
	}
}

// onePaperStudy cuts the default corpus to its first conference holding a
// single paper of slots authors.
func onePaperStudy(t *testing.T, slots int) *Study {
	t.Helper()
	cfg := synth.Default2017(2021)
	cfg.Confs = cfg.Confs[:1]
	cfg.Confs[0].Papers, cfg.Confs[0].AuthorSlots = 1, slots
	s, err := NewStudyFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWriteReportOnePaperCorpus: on a one-paper corpus the statistics
// meet degenerate samples — a contingency table with a zero marginal, too
// few gendered leads or author bands, no collaboration pairs to compare.
// Each such exhibit is noted as not applicable, with its cause, and the
// report finishes.
func TestWriteReportOnePaperCorpus(t *testing.T) {
	for _, slots := range []int{3, 14} {
		s := onePaperStudy(t, slots)
		var b bytes.Buffer
		if err := s.WriteReport(&b); err != nil {
			t.Fatalf("%d authors: WriteReport: %v", slots, err)
		}
		var notes []string
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "(not applicable to this corpus: ") {
				notes = append(notes, line)
			}
		}
		for _, cause := range []string{
			stats.ErrDegenerate.Error(),
			"too few gendered lead authors",
			"missing gendered author band populations",
			collab.ErrTooFew.Error(),
		} {
			if !slices.ContainsFunc(notes, func(n string) bool { return strings.Contains(n, cause) }) {
				t.Errorf("%d authors: report does not note %q as not applicable", slots, cause)
			}
		}
		if _, err := s.ExhibitCSV("experience_bands"); !errors.Is(err, core.ErrNotApplicable) {
			t.Errorf("%d authors: experience_bands error %v is not core.ErrNotApplicable", slots, err)
		}
	}
}
