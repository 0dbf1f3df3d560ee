package core

import (
	"math"
	"testing"

	"repro/internal/affil"
	"repro/internal/countries"
	"repro/internal/dataset"
	"repro/internal/scholar"
)

func TestAuthorFARFullCorpusShape(t *testing.T) {
	r := AuthorFAR(corpus.Data)
	far := r.Overall.Ratio()
	if far < 0.08 || far > 0.12 {
		t.Errorf("overall FAR %.4f outside [0.08, 0.12] (paper: 0.099)", far)
	}
	if len(r.PerConf) != 9 {
		t.Fatalf("%d conference rows", len(r.PerConf))
	}
	// SC and ISC are the two lowest-FAR flagship venues in the paper.
	var sc, isc float64
	for _, row := range r.PerConf {
		switch row.Conf {
		case "SC17":
			sc = row.Ratio.Ratio()
		case "ISC17":
			isc = row.Ratio.Ratio()
		}
	}
	if sc >= far || isc >= far {
		t.Errorf("SC %.4f / ISC %.4f not below overall %.4f", sc, isc, far)
	}
}

func TestCompareBlindReviewFullCorpusShape(t *testing.T) {
	r, err := CompareBlindReview(corpus.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 7.57% double vs 10.52% single.
	if !(r.DoubleBlind.Ratio() < r.SingleBlind.Ratio()) {
		t.Errorf("double %.4f should be below single %.4f",
			r.DoubleBlind.Ratio(), r.SingleBlind.Ratio())
	}
	// Paper: lead FAR single-blind nearly double the double-blind one.
	if !(r.LeadDouble.Ratio() < r.LeadSingle.Ratio()) {
		t.Errorf("lead double %.4f should be below lead single %.4f",
			r.LeadDouble.Ratio(), r.LeadSingle.Ratio())
	}
}

func TestCompareAuthorPositionsFullCorpusShape(t *testing.T) {
	r, err := CompareAuthorPositions(corpus.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: last 8.4% < overall 9.9%, nonsignificant (chi2 = 0.724).
	if !(r.Last.Ratio() < r.Overall.Ratio()) {
		t.Errorf("last %.4f should be below overall %.4f", r.Last.Ratio(), r.Overall.Ratio())
	}
	if r.LastTest.Significant(0.01) {
		t.Errorf("last-vs-overall unexpectedly strongly significant: p = %g", r.LastTest.P)
	}
}

func TestProgramCommitteeFullCorpusShape(t *testing.T) {
	r, err := ProgramCommittee(corpus.Data, "SC17")
	if err != nil {
		t.Fatal(err)
	}
	if r.SlotsTotal != 1220 {
		t.Errorf("PC slots = %d, want 1220", r.SlotsTotal)
	}
	overall := r.Overall.Ratio()
	if overall < 0.15 || overall > 0.22 {
		t.Errorf("PC women ratio %.4f (paper: 0.1846)", overall)
	}
	if sc := r.SC.Ratio(); sc < 0.25 || sc > 0.34 {
		t.Errorf("SC PC ratio %.4f (paper: 0.296)", sc)
	}
	if ex := r.ExcludingSC.Ratio(); ex < 0.12 || ex > 0.20 {
		t.Errorf("excluding-SC ratio %.4f (paper: 0.161)", ex)
	}
	if !r.VsAuthors.Significant(0.001) {
		t.Errorf("PC-vs-authors gap should be decisively significant, p = %g", r.VsAuthors.P)
	}
	if r.ChairsTotal != 36 {
		t.Errorf("PC chairs = %d, want 36", r.ChairsTotal)
	}
	if len(r.ZeroWomenChairConfs) != 4 {
		t.Errorf("%d zero-women chair conferences, want 4", len(r.ZeroWomenChairConfs))
	}
}

func TestVisibleRolesFullCorpusShape(t *testing.T) {
	rs := VisibleRoles(corpus.Data)
	byRole := map[dataset.Role]VisibleRoleStats{}
	for _, r := range rs {
		byRole[r.Role] = r
	}
	kn := byRole[dataset.RoleKeynote]
	if kn.Total != 30 {
		t.Errorf("keynotes = %d, want 30", kn.Total)
	}
	if len(kn.ZeroWomenConf) != 4 {
		t.Errorf("zero-women keynote confs = %d, want 4", len(kn.ZeroWomenConf))
	}
	sch := byRole[dataset.RoleSessionChair]
	if sch.Total != 158 {
		t.Errorf("session chairs = %d, want 158", sch.Total)
	}
	if len(sch.ZeroWomenConf) != 3 {
		t.Errorf("zero-women session-chair confs = %d, want 3 (HPDC, HPCC, HiPC)", len(sch.ZeroWomenConf))
	}
	// SC approaches parity on session chairs (paper: "Only SC shows a
	// ratio that is approaching gender parity").
	if sch.BestConf != "SC17" {
		t.Errorf("best session-chair conf = %s, want SC17", sch.BestConf)
	}
	if sch.BestRatio.Ratio() < 0.35 {
		t.Errorf("SC session-chair ratio %.4f not near parity", sch.BestRatio.Ratio())
	}
	pan := byRole[dataset.RolePanelist]
	if pan.Total != 106 {
		t.Errorf("panelists = %d, want 106", pan.Total)
	}
}

func TestHPCOnlySubsetFullCorpusShape(t *testing.T) {
	r, err := HPCOnlySubset(corpus.Data)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalPapers != 518 {
		t.Errorf("total papers = %d", r.TotalPapers)
	}
	// Paper: HPC-only FAR 10.1% vs 9.9% — essentially unchanged. Allow a
	// generous band but require "no collapse".
	diff := math.Abs(r.HPCAuthors.Ratio() - r.AllAuthors.Ratio())
	if diff > 0.03 {
		t.Errorf("HPC-only FAR diverges by %.4f (paper: ~0.002)", diff)
	}
	leadDiff := math.Abs(r.HPCLead.Ratio() - r.AllLead.Ratio())
	if leadDiff > 0.05 {
		t.Errorf("HPC-only lead FAR diverges by %.4f", leadDiff)
	}
}

func TestCitationReceptionFullCorpusShape(t *testing.T) {
	r, err := CitationReception(corpus.Data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.OutlierThreshold != DefaultOutlierThreshold {
		t.Errorf("threshold = %d", r.OutlierThreshold)
	}
	// Paper: 53 female-led vs 435 male-led.
	if r.FemaleLedPapers < 30 || r.FemaleLedPapers > 80 {
		t.Errorf("female-led papers = %d (paper: 53)", r.FemaleLedPapers)
	}
	if r.MaleLedPapers < 380 || r.MaleLedPapers > 480 {
		t.Errorf("male-led papers = %d (paper: 435)", r.MaleLedPapers)
	}
	// Incl. outlier: women average MORE (paper: 13.04 vs 10.55).
	if !(r.MeanFemale > r.MeanMale) {
		t.Errorf("incl-outlier means: F %.2f should exceed M %.2f", r.MeanFemale, r.MeanMale)
	}
	if r.OutliersExcluded != 1 {
		t.Errorf("outliers excluded = %d, want 1", r.OutliersExcluded)
	}
	// Excl. outlier: women average LESS (paper: 7.63 vs 10.55).
	if !(r.MeanFemaleExclOut < r.MeanMale) {
		t.Errorf("excl-outlier means: F %.2f should be below M %.2f", r.MeanFemaleExclOut, r.MeanMale)
	}
	if r.WelchExclOutlier.T >= 0 {
		t.Errorf("Welch t should be negative, got %.3f", r.WelchExclOutlier.T)
	}
	// i10 attainment gap (paper: 23% vs 38%).
	if !(r.I10Female.Ratio() < r.I10Male.Ratio()) {
		t.Errorf("i10: F %.3f should be below M %.3f", r.I10Female.Ratio(), r.I10Male.Ratio())
	}
	if len(r.Densities) != 2 {
		t.Fatalf("%d density curves", len(r.Densities))
	}
	for _, dcurve := range r.Densities {
		if len(dcurve.X) != 256 || len(dcurve.Y) != 256 {
			t.Errorf("curve %s has %d/%d points", dcurve.Label, len(dcurve.X), len(dcurve.Y))
		}
	}
}

func TestCitationReceptionErrors(t *testing.T) {
	d := dataset.New()
	if err := d.AddConference(&dataset.Conference{ID: "X", Name: "X", Year: 2017, AcceptanceRate: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := CitationReception(d, 0); err == nil {
		t.Error("empty corpus must error")
	}
}

func TestExperienceDistributionsShape(t *testing.T) {
	for _, m := range []Metric{MetricGSPublications, MetricHIndex, MetricS2Publications} {
		samples, err := ExperienceDistributions(corpus.Data, m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(samples) != 4 { // 2 genders x 2 roles
			t.Fatalf("%s: %d samples", m, len(samples))
		}
		bySet := map[string]GroupSample{}
		for _, s := range samples {
			bySet[s.Gender.String()+"/"+s.Role.String()] = s
			// All distributions right-skewed (the paper's first observation).
			if s.Summary.Skewness <= 0 {
				t.Errorf("%s %s/%s skewness %.2f, want positive", m, s.Gender, s.Role, s.Summary.Skewness)
			}
			if len(s.Density.X) == 0 {
				t.Errorf("%s %s/%s: empty density", m, s.Gender, s.Role)
			}
		}
		// PC members more experienced than authors, per gender (medians).
		for _, g := range []string{"female", "male"} {
			au := bySet[g+"/author"].Summary.Median
			pc := bySet[g+"/PC member"].Summary.Median
			if !(pc > au) {
				t.Errorf("%s %s: PC median %.1f not above author median %.1f", m, g, pc, au)
			}
		}
		// Male authors pull right relative to female authors.
		if m != MetricS2Publications { // S2 noise blurs this at author level
			f := bySet["female/author"].Summary.Median
			mm := bySet["male/author"].Summary.Median
			if !(mm > f) {
				t.Errorf("%s: male author median %.1f not above female %.1f", m, mm, f)
			}
		}
	}
}

func TestExperienceDistributionsCustomRoles(t *testing.T) {
	samples, err := ExperienceDistributions(corpus.Data, MetricHIndex, dataset.RoleAuthor)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples for a single role", len(samples))
	}
}

func TestCompareScholarSources(t *testing.T) {
	r, err := CompareScholarSources(corpus.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: r = 0.334, p < 0.0001 — low but decidedly positive.
	if r.Result.R < 0.15 || r.Result.R > 0.65 {
		t.Errorf("GS-S2 correlation %.3f outside the paper's 'low' band", r.Result.R)
	}
	if r.Result.P > 0.0001 {
		t.Errorf("p = %g, want < 0.0001", r.Result.P)
	}
	if r.N < 800 {
		t.Errorf("only %d dual-source authors", r.N)
	}
}

func TestExperienceBandsShape(t *testing.T) {
	r, err := ExperienceBands(corpus.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 69.65% GS coverage among known-gender researchers.
	if r.GSCoverage < 0.60 || r.GSCoverage > 0.80 {
		t.Errorf("GS coverage %.3f (paper: 0.6965)", r.GSCoverage)
	}
	// Paper Fig 6: women more concentrated in the novice band.
	if !(r.NoviceFemale.Ratio() > r.NoviceMale.Ratio()) {
		t.Errorf("novice shares: F %.3f should exceed M %.3f",
			r.NoviceFemale.Ratio(), r.NoviceMale.Ratio())
	}
	// Bands partition each cell's population.
	for _, cell := range append(append([]BandCell{}, r.All...), r.Authors...) {
		if cell.Counts[0]+cell.Counts[1]+cell.Counts[2] != cell.Total {
			t.Errorf("band counts don't sum: %+v", cell)
		}
		shares := cell.Share(scholar.Novice) + cell.Share(scholar.MidCareer) + cell.Share(scholar.Experienced)
		if cell.Total > 0 && math.Abs(shares-1) > 1e-9 {
			t.Errorf("band shares sum to %g", shares)
		}
	}
}

func TestTopCountriesShape(t *testing.T) {
	rows := TopCountries(corpus.Data, 10)
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Code != "US" {
		t.Errorf("top country = %s, want US", rows[0].Code)
	}
	// Sorted by total descending.
	for i := 1; i < len(rows); i++ {
		if rows[i].Total > rows[i-1].Total {
			t.Fatal("rows not sorted by total")
		}
	}
	// All Table 2 majors present in the top 10.
	have := map[string]CountryRow{}
	for _, r := range rows {
		have[r.Code] = r
	}
	for _, cc := range []string{"US", "CN", "FR", "DE", "ES"} {
		if _, ok := have[cc]; !ok {
			t.Errorf("country %s missing from top 10", cc)
		}
	}
	// US highest FAR among majors; Japan far lower when present.
	if jp, ok := have["JP"]; ok {
		if jp.Ratio.Ratio() >= have["US"].Ratio.Ratio() {
			t.Error("Japan FAR should be below US FAR")
		}
	}
	// Limit 0 returns everything.
	all := TopCountries(corpus.Data, 0)
	if len(all) <= 10 {
		t.Errorf("unlimited rows = %d", len(all))
	}
}

func TestCountriesWithMinAuthorsShape(t *testing.T) {
	rows := CountriesWithMinAuthors(corpus.Data, 10)
	// Paper Fig 7: 25 countries with >= 10 authors. Accept a band.
	if len(rows) < 12 || len(rows) > 40 {
		t.Errorf("%d countries with >=10 authors (paper: 25)", len(rows))
	}
	for _, r := range rows {
		if r.Total < 10 {
			t.Errorf("%s slipped in with %d authors", r.Code, r.Total)
		}
	}
	// Sorted by FAR descending.
	for i := 1; i < len(rows); i++ {
		if rows[i].Ratio.Ratio() > rows[i-1].Ratio.Ratio() {
			t.Fatal("rows not sorted by ratio")
		}
	}
}

func TestRegionRoleTableShape(t *testing.T) {
	rows := RegionRoleTable(corpus.Data)
	if len(rows) < 8 {
		t.Fatalf("only %d regions", len(rows))
	}
	if rows[0].Region != countries.NorthernAmerica {
		t.Errorf("largest region = %s, want Northern America", rows[0].Region)
	}
	// Table 3 shape: Northern America PC ratio well above its author ratio.
	na := rows[0]
	if !(na.PC.Ratio() > na.Authors.Ratio()) {
		t.Errorf("NA: PC %.3f should exceed authors %.3f", na.PC.Ratio(), na.Authors.Ratio())
	}
	// The big-region author ratios hover near the overall ~10%.
	for _, r := range rows {
		if r.Authors.N >= 100 {
			if ratio := r.Authors.Ratio(); ratio < 0.03 || ratio > 0.20 {
				t.Errorf("region %s author FAR %.3f implausible", r.Region, ratio)
			}
		}
	}
}

func TestConcentrationShape(t *testing.T) {
	g := Concentration(corpus.Data)
	// Paper: US 50.2% of authors, 52.57% of PC members; Western Europe
	// 14.33% / 16.36%. Reviewers are NOT overrepresented vs authors.
	if g.USAuthors < 0.40 || g.USAuthors > 0.60 {
		t.Errorf("US author share %.3f", g.USAuthors)
	}
	if g.WEAuthors < 0.08 || g.WEAuthors > 0.22 {
		t.Errorf("WE author share %.3f", g.WEAuthors)
	}
	if math.Abs(g.USPC-g.USAuthors) > 0.12 {
		t.Errorf("US PC share %.3f far from author share %.3f", g.USPC, g.USAuthors)
	}
	if g.AuthorsIdentified == 0 || g.PCIdentified == 0 {
		t.Error("no identified researchers")
	}
}

func TestSectorRepresentationShape(t *testing.T) {
	r, err := SectorRepresentation(corpus.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Paper mix: COM 8.6, EDU 72.8, GOV 18.6.
	if r.MixEDU < 0.66 || r.MixEDU > 0.80 {
		t.Errorf("EDU mix %.3f", r.MixEDU)
	}
	if r.MixCOM < 0.04 || r.MixCOM > 0.13 {
		t.Errorf("COM mix %.3f", r.MixCOM)
	}
	if r.MixGOV < 0.13 || r.MixGOV > 0.25 {
		t.Errorf("GOV mix %.3f", r.MixGOV)
	}
	if len(r.Cells) != 6 {
		t.Fatalf("%d cells, want 6", len(r.Cells))
	}
	// Paper: both sector tests nonsignificant (p = 0.77 and 0.443).
	if r.PCTest.Significant(0.01) {
		t.Errorf("PC sector test strongly significant (p = %g); paper found none", r.PCTest.P)
	}
	if r.AuthorTest.Significant(0.01) {
		t.Errorf("author sector test strongly significant (p = %g)", r.AuthorTest.P)
	}
	// Cell lookup works.
	if _, ok := r.Cell(affil.GOV, dataset.RolePCMember); !ok {
		t.Error("GOV/PC cell missing")
	}
	if _, ok := r.Cell(affil.SectorUnknown, dataset.RoleAuthor); ok {
		t.Error("unknown-sector cell should not exist")
	}
}

func TestSectorRepresentationEmptyCorpus(t *testing.T) {
	d := dataset.New()
	if err := d.AddConference(&dataset.Conference{ID: "X", Name: "X", Year: 2017, AcceptanceRate: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := SectorRepresentation(d); err == nil {
		t.Error("empty corpus must error")
	}
}

func TestMetricString(t *testing.T) {
	if MetricGSPublications.String() == "" || MetricHIndex.String() == "" ||
		MetricS2Publications.String() == "" || Metric(99).String() == "" {
		t.Error("metric names must render")
	}
}
