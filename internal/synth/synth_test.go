package synth

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/perffloor"
	"repro/internal/stats"
)

// corpus2017 is shared across tests (generation is deterministic, so a
// single instance is safe to share read-only).
var corpus2017 = func() *Corpus {
	c, err := Generate(Default2017(1))
	if err != nil {
		panic(err)
	}
	return c
}()

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Default2017(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Default2017(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Data.Persons) != len(b.Data.Persons) {
		t.Fatalf("person counts differ: %d vs %d", len(a.Data.Persons), len(b.Data.Persons))
	}
	for id, pa := range a.Data.Persons {
		pb, ok := b.Data.Persons[id]
		if !ok || *pa != *pb {
			t.Fatalf("person %s differs between identical seeds", id)
		}
	}
	for i := range a.Data.Papers {
		if a.Data.Papers[i].ID != b.Data.Papers[i].ID ||
			a.Data.Papers[i].Citations36 != b.Data.Papers[i].Citations36 {
			t.Fatal("papers differ between identical seeds")
		}
	}
	// Different seed -> different corpus (overwhelmingly likely).
	c, err := Generate(Default2017(8))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Data.Papers {
		if a.Data.Papers[i].Citations36 != c.Data.Papers[i].Citations36 {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical citation draws")
	}
}

// generateAllocs is the work budget of one Generate(Default2017(2021)),
// which draws 2,881 researchers' careers: measured on linux/amd64 with Go
// 1.24 as 43,692 allocations, plus about 5% headroom. An allocation per
// researcher, such as a fresh career vector or a sorted copy of one for
// the h-index, would exceed it.
const generateAllocs = 45_880

// TestGenerateWorkBudget bounds the allocations of synthesizing the
// default corpus. Unlike a time, the count does not depend on what else
// shares the CPUs; the race detector's sync.Pool drops make it vary, so the
// budget only runs on uninstrumented builds.
func TestGenerateWorkBudget(t *testing.T) {
	if perffloor.RaceEnabled {
		t.Skip("allocation budget disabled under the race detector")
	}
	n := testing.AllocsPerRun(2, func() {
		if _, err := Generate(Default2017(2021)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Generate(Default2017(2021)): %.0f allocations, budget %d", n, generateAllocs)
	if n > generateAllocs {
		t.Errorf("Generate(Default2017(2021)) allocates %.0f times, budget %d", n, generateAllocs)
	}
}

func TestCorpusValidates(t *testing.T) {
	if err := corpus2017.Data.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable1Structure(t *testing.T) {
	d := corpus2017.Data
	if len(d.Conferences) != 9 {
		t.Fatalf("%d conferences, want 9", len(d.Conferences))
	}
	wantPapers := map[dataset.ConfID]int{
		"CCGRID17": 72, "IPDPS17": 116, "ISC17": 22, "HPDC17": 19,
		"ICPP17": 60, "EUROPAR17": 50, "SC17": 61, "HIPC17": 41, "HPCC17": 77,
	}
	total := 0
	for id, want := range wantPapers {
		got := len(d.PapersOf(id))
		if got != want {
			t.Errorf("%s: %d papers, want %d", id, got, want)
		}
		total += got
	}
	if total != 518 {
		t.Errorf("total papers %d, want 518", total)
	}
	wantSlots := map[dataset.ConfID]int{
		"CCGRID17": 296, "IPDPS17": 447, "ISC17": 99, "HPDC17": 76,
		"ICPP17": 234, "EUROPAR17": 179, "SC17": 325, "HIPC17": 168, "HPCC17": 287,
	}
	for id, want := range wantSlots {
		if got := len(d.AuthorSlots(id)); got != want {
			t.Errorf("%s: %d author slots, want %d", id, got, want)
		}
	}
	// Acceptance rates carried through.
	sc, _ := d.Conference("SC17")
	if math.Abs(sc.AcceptanceRate-0.187) > 1e-9 || !sc.DoubleBlind || !sc.DiversityChair || !sc.Childcare {
		t.Errorf("SC17 attributes wrong: %+v", sc)
	}
	isc, _ := d.Conference("ISC17")
	if !isc.DoubleBlind || !isc.DiversityChair || isc.Childcare {
		t.Errorf("ISC17 attributes wrong: %+v", isc)
	}
}

func TestRoleTotals(t *testing.T) {
	d := corpus2017.Data
	cases := []struct {
		role dataset.Role
		want int
	}{
		{dataset.RolePCChair, 36},
		{dataset.RolePCMember, 1220},
		{dataset.RoleKeynote, 30},
		{dataset.RolePanelist, 106},
		{dataset.RoleSessionChair, 158},
	}
	for _, c := range cases {
		if got := len(d.RoleSlots(c.role)); got != c.want {
			t.Errorf("%s slots = %d, want %d", c.role, got, c.want)
		}
	}
	// SC's PC is the largest both absolutely and relatively.
	sc, _ := d.Conference("SC17")
	if len(sc.PCMembers) != 225 {
		t.Errorf("SC PC = %d, want 225", len(sc.PCMembers))
	}
}

func TestOverallFARNearTarget(t *testing.T) {
	d := corpus2017.Data
	gc := d.CountGenders(d.AuthorSlots())
	far := gc.FemaleRatio()
	// Paper: 9.9% overall. Quota sampling on true gender plus a ~3%
	// unknown mask leaves the perceived ratio within a point.
	if far < 0.085 || far > 0.115 {
		t.Errorf("overall FAR %.4f outside [0.085, 0.115]", far)
	}
	// SC and ISC specifically low.
	scFar := d.CountGenders(d.AuthorSlots("SC17")).FemaleRatio()
	iscFar := d.CountGenders(d.AuthorSlots("ISC17")).FemaleRatio()
	if scFar > far {
		t.Errorf("SC FAR %.4f should be below overall %.4f", scFar, far)
	}
	if iscFar > 0.09 {
		t.Errorf("ISC FAR %.4f, want < 0.09", iscFar)
	}
}

func TestPCWomenRatioAboveAuthors(t *testing.T) {
	d := corpus2017.Data
	authorFAR := d.CountGenders(d.AuthorSlots()).FemaleRatio()
	pcRatio := d.CountGenders(d.RoleSlots(dataset.RolePCMember)).FemaleRatio()
	// Paper: 18.46% PC vs 9.9% authors — about double.
	if pcRatio < 1.5*authorFAR {
		t.Errorf("PC ratio %.4f not well above author FAR %.4f", pcRatio, authorFAR)
	}
	// SC PC women ratio ~29.6%.
	scPC := d.CountGenders(d.RoleSlots(dataset.RolePCMember, "SC17")).FemaleRatio()
	if scPC < 0.25 || scPC > 0.34 {
		t.Errorf("SC PC women ratio %.4f outside [0.25, 0.34]", scPC)
	}
}

func TestZeroWomenRosters(t *testing.T) {
	d := corpus2017.Data
	// §3.3: zero female session chairs at HPDC, HPCC, HiPC.
	for _, id := range []dataset.ConfID{"HPDC17", "HPCC17", "HIPC17"} {
		gc := d.CountGenders(d.RoleSlots(dataset.RoleSessionChair, id))
		if gc.Women != 0 {
			t.Errorf("%s session chairs: %d women, want 0", id, gc.Women)
		}
	}
	// Four conferences with zero female keynotes.
	zeroKeynotes := 0
	for _, c := range d.Conferences {
		if d.CountGenders(d.RoleSlots(dataset.RoleKeynote, c.ID)).Women == 0 {
			zeroKeynotes++
		}
	}
	if zeroKeynotes != 4 {
		t.Errorf("%d conferences with zero female keynotes, want 4", zeroKeynotes)
	}
	// Four conferences with zero female PC chairs.
	zeroChairs := 0
	for _, c := range d.Conferences {
		if d.CountGenders(d.RoleSlots(dataset.RolePCChair, c.ID)).Women == 0 {
			zeroChairs++
		}
	}
	if zeroChairs != 4 {
		t.Errorf("%d conferences with zero female PC chairs, want 4", zeroChairs)
	}
}

func TestUniquenessGaps(t *testing.T) {
	d := corpus2017.Data
	slots := len(d.AuthorSlots())
	unique := len(d.UniqueAuthors())
	if unique >= slots {
		t.Fatalf("no author reuse: %d unique of %d slots", unique, slots)
	}
	// Paper: 1885 unique of ~2111-2236 slots (about 89%).
	ratio := float64(unique) / float64(slots)
	if ratio < 0.82 || ratio > 0.97 {
		t.Errorf("unique/slot author ratio %.3f outside [0.82, 0.97]", ratio)
	}
	pcSlots := len(d.RoleSlots(dataset.RolePCMember))
	pcUnique := len(d.UniqueRoleHolders(dataset.RolePCMember))
	pcRatio := float64(pcUnique) / float64(pcSlots)
	// Paper: 908 of 1220 = 0.744.
	if pcRatio < 0.6 || pcRatio > 0.9 {
		t.Errorf("unique/slot PC ratio %.3f outside [0.6, 0.9]", pcRatio)
	}
}

func TestGenderAssignmentCoverage(t *testing.T) {
	d := corpus2017.Data
	var stats gender.CoverageStats
	for _, p := range d.Persons {
		stats.Add(gender.Assignment{Gender: p.Gender, Method: p.AssignMethod})
	}
	if f := stats.ManualFrac(); f < 0.93 || f > 0.97 {
		t.Errorf("manual fraction %.4f, paper reports 0.9518", f)
	}
	if f := stats.UnassignedFrac(); f < 0.015 || f > 0.05 {
		t.Errorf("unassigned fraction %.4f, paper reports 0.0303", f)
	}
	if stats.Automated == 0 {
		t.Error("no automated assignments at all")
	}
	// Manual assignments are always correct; automated ones mostly.
	wrongManual := 0
	for _, p := range d.Persons {
		if p.AssignMethod == gender.MethodManual && p.Gender != p.TrueGender {
			wrongManual++
		}
	}
	if wrongManual != 0 {
		t.Errorf("%d wrong manual assignments; survey found none", wrongManual)
	}
}

func TestHPCTaggedSubset(t *testing.T) {
	d := corpus2017.Data
	hpc := len(d.HPCPapers())
	// Paper: 178 of 518 (~34%).
	if hpc < 130 || hpc > 230 {
		t.Errorf("HPC-tagged papers %d outside [130, 230]", hpc)
	}
}

func TestOutlierInjected(t *testing.T) {
	d := corpus2017.Data
	var outlier *dataset.Paper
	for _, p := range d.Papers {
		if p.Citations36 >= 450 {
			if outlier != nil {
				t.Fatal("more than one >=450-citation paper")
			}
			outlier = p
		}
	}
	if outlier == nil {
		t.Fatal("no >450-citation outlier injected")
	}
	if outlier.HPCTopic {
		t.Error("outlier must be non-HPC (the paper's §4.2 exclusion)")
	}
	lead, _ := d.Person(outlier.Lead())
	if lead.Gender != gender.Female {
		t.Error("outlier must be female-led")
	}
}

func TestCountryMarginals(t *testing.T) {
	d := corpus2017.Data
	counts := map[string]int{}
	researchers := d.UniqueAuthorsAndPC()
	for _, id := range researchers {
		p, _ := d.Person(id)
		counts[p.CountryCode]++
	}
	us := float64(counts["US"]) / float64(len(researchers))
	// Paper: roughly half of researchers are US-affiliated.
	if us < 0.40 || us > 0.60 {
		t.Errorf("US share %.3f outside [0.40, 0.60]", us)
	}
	// Table 2 ordering: US dominates; China next among the majors.
	if counts["US"] < 3*counts["CN"] {
		t.Errorf("US (%d) should dwarf China (%d)", counts["US"], counts["CN"])
	}
	for _, cc := range []string{"CN", "FR", "DE", "ES", "IN", "CH", "JP", "GB", "CA"} {
		if counts[cc] == 0 {
			t.Errorf("no researchers from %s; Table 2 needs them", cc)
		}
	}
}

func TestCountryFARPattern(t *testing.T) {
	d := corpus2017.Data
	tally := func(cc string) (women, known int) {
		for _, id := range d.UniqueAuthorsAndPC() {
			p, _ := d.Person(id)
			if p.CountryCode != cc || !p.Gender.Known() {
				continue
			}
			known++
			if p.Gender == gender.Female {
				women++
			}
		}
		return
	}
	usW, usN := tally("US")
	jpW, jpN := tally("JP")
	if usN == 0 || jpN == 0 {
		t.Fatal("missing US or JP researchers")
	}
	usFAR := float64(usW) / float64(usN)
	jpFAR := float64(jpW) / float64(jpN)
	// Table 2: US is the highest major country (15.38%), Japan the lowest
	// (1.59%).
	if usFAR < 0.11 || usFAR > 0.20 {
		t.Errorf("US FAR %.4f outside [0.11, 0.20]", usFAR)
	}
	if jpFAR > 0.06 {
		t.Errorf("Japan FAR %.4f, want < 0.06", jpFAR)
	}
	if jpFAR >= usFAR {
		t.Error("Japan FAR should be far below US FAR")
	}
}

func TestSectorMarginals(t *testing.T) {
	d := corpus2017.Data
	var edu, com, gov, n int
	for _, p := range d.Persons {
		n++
		switch p.Sector.String() {
		case "EDU":
			edu++
		case "COM":
			com++
		case "GOV":
			gov++
		}
	}
	if f := float64(edu) / float64(n); f < 0.68 || f > 0.78 {
		t.Errorf("EDU share %.3f, paper reports 0.728", f)
	}
	if f := float64(com) / float64(n); f < 0.05 || f > 0.12 {
		t.Errorf("COM share %.3f, paper reports 0.086", f)
	}
	if f := float64(gov) / float64(n); f < 0.14 || f > 0.24 {
		t.Errorf("GOV share %.3f, paper reports 0.186", f)
	}
}

func TestScholarCoverageAndConsistency(t *testing.T) {
	d := corpus2017.Data
	withGS, total := 0, 0
	for _, p := range d.Persons {
		total++
		if p.HasGSProfile {
			withGS++
			if err := p.GS.Validate(); err != nil {
				t.Fatalf("person %s: %v", p.ID, err)
			}
			if _, ok := corpus2017.GS.Lookup(string(p.ID)); !ok {
				t.Fatalf("person %s flagged HasGSProfile but missing from directory", p.ID)
			}
		}
		if !p.HasS2 || p.S2Pubs < 1 {
			t.Fatalf("person %s lacks Semantic Scholar coverage", p.ID)
		}
	}
	cov := float64(withGS) / float64(total)
	// Paper: 68.3% unambiguous GS linkage.
	if cov < 0.60 || cov > 0.78 {
		t.Errorf("GS coverage %.3f outside [0.60, 0.78]", cov)
	}
}

func TestUnlinkedResearchersLessExperienced(t *testing.T) {
	// Paper §2: "we found no GS profile for about a third of the
	// researchers, and these researchers appear to be less experienced".
	d := corpus2017.Data
	var withPubs, withoutPubs []float64
	for _, p := range d.Persons {
		if p.HasGSProfile {
			withPubs = append(withPubs, float64(p.S2Pubs))
		} else {
			withoutPubs = append(withoutPubs, float64(p.S2Pubs))
		}
	}
	// Medians, not means: the S2 disambiguation noise is heavy-tailed
	// enough that a handful of merge blunders dominates a mean.
	medWithout, _ := stats.Median(withoutPubs)
	medWith, _ := stats.Median(withPubs)
	if medWithout >= medWith {
		t.Errorf("unlinked researchers look MORE experienced: median %.1f vs %.1f S2 pubs",
			medWithout, medWith)
	}
}

func TestFlagshipSeries(t *testing.T) {
	c, err := Generate(FlagshipSeries(3))
	if err != nil {
		t.Fatal(err)
	}
	d := c.Data
	if len(d.Conferences) != 10 {
		t.Fatalf("%d conferences, want 10 (SC+ISC x 5 years)", len(d.Conferences))
	}
	years := map[int]bool{}
	for _, conf := range d.Conferences {
		years[conf.Year] = true
		if conf.Name == "SC" && (conf.WomenAttendance < 0.11 || conf.WomenAttendance > 0.15) {
			t.Errorf("SC %d attendance %.3f outside the paper's 12-14%% band", conf.Year, conf.WomenAttendance)
		}
		far := d.CountGenders(d.AuthorSlots(conf.ID)).FemaleRatio()
		if conf.Name == "ISC" && (far < 0.01 || far > 0.13) {
			t.Errorf("ISC %d FAR %.4f outside plausible band", conf.Year, far)
		}
	}
	for y := 2016; y <= 2020; y++ {
		if !years[y] {
			t.Errorf("missing year %d", y)
		}
	}
}

func TestConfigValidateCatchesBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Confs = nil },
		func(c *Config) { c.Countries = nil },
		func(c *Config) { c.Countries[0].Weight = 0 },
		func(c *Config) { c.Countries[0].FAR = 1.5 },
		func(c *Config) { c.Confs[0].Papers = 0 },
		func(c *Config) { c.Confs[0].AuthorSlots = c.Confs[0].Papers },
		// More slots than maxAuthors per paper: paperSizes could never
		// place them all.
		func(c *Config) { c.Confs[0].AuthorSlots = maxAuthors*c.Confs[0].Papers + 1 },
		func(c *Config) { c.Confs[0].AcceptanceRate = 0 },
		func(c *Config) { c.Confs[0].PCMembers = RoleQuota{Total: 5, Women: 9} },
		func(c *Config) { c.Confs[0].FAR = -0.1 },
		func(c *Config) { c.SectorEDU = 0.9 }, // breaks the sum
		func(c *Config) { c.ManualEvidenceRate = 1.2 },
	}
	for i, mut := range mutations {
		cfg := Default2017(1)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
	good := Default2017(1)
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestPaperSizesPartition(t *testing.T) {
	g := &gen{rng: randFor(99)}
	sizes := g.paperSizes(61, 325)
	sum := 0
	for _, s := range sizes {
		if s < 2 || s > maxAuthors {
			t.Fatalf("paper size %d outside [2, %d]", s, maxAuthors)
		}
		sum += s
	}
	if sum != 325 {
		t.Fatalf("sizes sum to %d, want 325", sum)
	}
}
