package repro

// The benchmark harness regenerates every table and figure of the paper,
// one benchmark per exhibit (see DESIGN.md §4 for the mapping), plus the
// ablation benches for the design choices DESIGN.md calls out. Each bench
// renders or computes the real exhibit on the full calibrated corpus and
// reports the exhibit's headline number as a custom metric, so
// `go test -bench=. -benchmem` doubles as the reproduction run.

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/synth"
)

// benchStudy is generated once; benchmarks only read it.
var benchStudy = func() *Study {
	s, err := NewStudy(2021)
	if err != nil {
		panic(err)
	}
	return s
}()

var benchFlagship = func() *Study {
	s, err := NewStudyFromConfig(synth.FlagshipSeries(2021))
	if err != nil {
		panic(err)
	}
	return s
}()

func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.Default2017(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Conferences(b *testing.B) {
	d := benchStudy.Dataset()
	for i := 0; i < b.N; i++ {
		if err := report.Table1(io.Discard, d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(d.Papers)), "papers")
}

func BenchmarkFig1RoleRepresentation(b *testing.B) {
	d := benchStudy.Dataset()
	var tab core.RoleTable
	for i := 0; i < b.N; i++ {
		tab = core.RoleRepresentation(d)
	}
	b.ReportMetric(100*tab.Overall[0].Ratio(), "author_%women")
}

func BenchmarkSec31AuthorGenderGap(b *testing.B) {
	d := benchStudy.Dataset()
	var far core.FARResult
	for i := 0; i < b.N; i++ {
		far = core.AuthorFAR(d)
		if _, err := core.CompareBlindReview(d); err != nil {
			b.Fatal(err)
		}
		if _, err := core.CompareAuthorPositions(d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*far.Overall.Ratio(), "FAR_%")
}

func BenchmarkSec32ProgramCommittee(b *testing.B) {
	d := benchStudy.Dataset()
	var pc core.PCAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		pc, err = core.ProgramCommittee(d, benchStudy.SCID())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*pc.Overall.Ratio(), "PC_%women")
}

func BenchmarkSec33VisibleRoles(b *testing.B) {
	d := benchStudy.Dataset()
	var zero int
	for i := 0; i < b.N; i++ {
		zero = 0
		for _, r := range core.VisibleRoles(d) {
			zero += len(r.ZeroWomenConf)
		}
	}
	b.ReportMetric(float64(zero), "zero_women_rosters")
}

func BenchmarkSec34FlagshipTimeSeries(b *testing.B) {
	d := benchFlagship.Dataset()
	var points []core.SeriesPoint
	for i := 0; i < b.N; i++ {
		points = core.FlagshipTrend(d)
		core.TrendSummary(points)
	}
	b.ReportMetric(float64(len(points)), "editions")
}

func BenchmarkSec41HPCOnlySubset(b *testing.B) {
	d := benchStudy.Dataset()
	var res core.TopicAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.HPCOnlySubset(d)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.HPCAuthors.Ratio(), "HPC_FAR_%")
}

func BenchmarkFig2CitationReception(b *testing.B) {
	d := benchStudy.Dataset()
	var res core.CitationAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.CitationReception(d, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanFemaleExclOut, "F_mean_cites")
	b.ReportMetric(res.MeanMale, "M_mean_cites")
}

func benchExperience(b *testing.B, m core.Metric) {
	b.Helper()
	d := benchStudy.Dataset()
	var samples []core.GroupSample
	var err error
	for i := 0; i < b.N; i++ {
		samples, err = core.ExperienceDistributions(d, m)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(samples[0].Summary.Median, "F_author_median")
}

func BenchmarkFig3PubsGoogleScholar(b *testing.B)   { benchExperience(b, core.MetricGSPublications) }
func BenchmarkFig4HIndex(b *testing.B)              { benchExperience(b, core.MetricHIndex) }
func BenchmarkFig5PubsSemanticScholar(b *testing.B) { benchExperience(b, core.MetricS2Publications) }

func BenchmarkFig6ExperienceBands(b *testing.B) {
	d := benchStudy.Dataset()
	var res core.BandAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.ExperienceBands(d)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.NoviceFemale.Ratio(), "novice_F_%")
	b.ReportMetric(100*res.NoviceMale.Ratio(), "novice_M_%")
}

func BenchmarkTable2TopCountries(b *testing.B) {
	d := benchStudy.Dataset()
	var rows []core.CountryRow
	for i := 0; i < b.N; i++ {
		rows = core.TopCountries(d, 10)
	}
	b.ReportMetric(float64(rows[0].Total), "US_researchers")
}

func BenchmarkFig7CountryRepresentation(b *testing.B) {
	d := benchStudy.Dataset()
	var rows []core.CountryRow
	for i := 0; i < b.N; i++ {
		rows = core.CountriesWithMinAuthors(d, 10)
	}
	b.ReportMetric(float64(len(rows)), "countries")
}

func BenchmarkTable3RegionRole(b *testing.B) {
	d := benchStudy.Dataset()
	var rows []core.RegionRow
	for i := 0; i < b.N; i++ {
		rows = core.RegionRoleTable(d)
		core.Concentration(d)
	}
	b.ReportMetric(float64(len(rows)), "regions")
}

func BenchmarkFig8SectorRepresentation(b *testing.B) {
	d := benchStudy.Dataset()
	var res core.SectorAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.SectorRepresentation(d)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.MixGOV, "GOV_mix_%")
}

func BenchmarkSensitivityAnalysis(b *testing.B) {
	d := benchStudy.Dataset()
	var res core.SensitivityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.SensitivityAnalysis(d, benchStudy.SCID())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.UnknownCount), "unknowns_forced")
}

func BenchmarkGenderAssignmentCascade(b *testing.B) {
	// Re-run the full three-stage cascade over every researcher name in
	// the corpus (manual evidence assumed present, as for 95% of the
	// paper's population).
	d := benchStudy.Dataset()
	cascade := gender.Cascade{Automated: gender.BankGenderizer{}}
	persons := make([]struct {
		truth    gender.Gender
		forename string
		country  string
	}, 0, len(d.Persons))
	for _, p := range d.Persons {
		persons = append(persons, struct {
			truth    gender.Gender
			forename string
			country  string
		}{p.TrueGender, p.Forename, p.CountryCode})
	}
	b.ResetTimer()
	var covered int
	for i := 0; i < b.N; i++ {
		covered = 0
		for _, p := range persons {
			a := cascade.Assign(p.truth, gender.WebEvidence{HasPronounPage: true}, p.forename, p.country, nil)
			if a.Gender.Known() {
				covered++
			}
		}
	}
	b.ReportMetric(float64(covered)/float64(len(persons))*100, "coverage_%")
}

func BenchmarkFullPaperReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchStudy.WriteReport(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §7) ---

// BenchmarkAblationQuotaVsBernoulli contrasts the generator's quota gender
// sampling against independent Bernoulli draws: the metric is the worst
// per-conference FAR miss (percentage points) against the calibration
// target. Quota keeps it tight; Bernoulli drifts.
func BenchmarkAblationQuotaVsBernoulli(b *testing.B) {
	for _, mode := range []struct {
		name      string
		bernoulli bool
	}{{"quota", false}, {"bernoulli", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				cfg := synth.Default2017(uint64(i + 1))
				cfg.BernoulliGenders = mode.bernoulli
				corpus, err := synth.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				worst = 0
				for _, spec := range cfg.Confs {
					gc := corpus.Data.CountGenders(corpus.Data.AuthorSlots(spec.ID))
					// Compare against the *true* gender quota target; the
					// perceived ratio carries the unknown mask for both modes.
					miss := absDiff(gc.FemaleRatio(), spec.FAR) * 100
					if miss > worst {
						worst = miss
					}
				}
			}
			b.ReportMetric(worst, "worst_FAR_miss_pp")
		})
	}
}

// BenchmarkAblationAssignmentOrder contrasts the paper's manual-first
// cascade with an automated-only pipeline on the same names: the metric is
// coverage (share assigned) and accuracy (share of assignments matching
// the true gender).
func BenchmarkAblationAssignmentOrder(b *testing.B) {
	d := benchStudy.Dataset()
	type row struct {
		truth    gender.Gender
		forename string
		country  string
	}
	var rows []row
	for _, p := range d.Persons {
		rows = append(rows, row{p.TrueGender, p.Forename, p.CountryCode})
	}
	for _, mode := range []struct {
		name   string
		manual bool
	}{{"manual-first", true}, {"automated-only", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cascade := gender.Cascade{Automated: gender.BankGenderizer{}}
			var covered, correct int
			for i := 0; i < b.N; i++ {
				covered, correct = 0, 0
				for _, r := range rows {
					ev := gender.WebEvidence{}
					if mode.manual {
						ev.HasPronounPage = true
					}
					a := cascade.Assign(r.truth, ev, r.forename, r.country, nil)
					if a.Gender.Known() {
						covered++
						if a.Gender == r.truth {
							correct++
						}
					}
				}
			}
			b.ReportMetric(float64(covered)/float64(len(rows))*100, "coverage_%")
			if covered > 0 {
				b.ReportMetric(float64(correct)/float64(covered)*100, "accuracy_%")
			}
		})
	}
}

// BenchmarkAblationYates contrasts the uncorrected chi-squared test (what
// reproduces the paper's reported statistics) with the Yates-corrected
// variant on the paper's own 2x2 comparison (double- vs single-blind FAR).
func BenchmarkAblationYates(b *testing.B) {
	d := benchStudy.Dataset()
	blind, err := core.CompareBlindReview(d)
	if err != nil {
		b.Fatal(err)
	}
	table := [][]float64{
		{float64(blind.DoubleBlind.K), float64(blind.DoubleBlind.N - blind.DoubleBlind.K)},
		{float64(blind.SingleBlind.K), float64(blind.SingleBlind.N - blind.SingleBlind.K)},
	}
	for _, mode := range []struct {
		name string
		fn   func([][]float64) (stats.ChiSquaredResult, error)
	}{
		{"uncorrected", stats.ChiSquaredIndependence},
		{"yates", stats.ChiSquaredIndependenceYates},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var res stats.ChiSquaredResult
			for i := 0; i < b.N; i++ {
				res, err = mode.fn(table)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.ChiSq, "chisq")
			b.ReportMetric(res.P, "p")
		})
	}
}

// BenchmarkAblationKDEBandwidth contrasts Silverman (the paper's plots)
// against Scott bandwidths on the Fig 2 male-led citation density.
func BenchmarkAblationKDEBandwidth(b *testing.B) {
	d := benchStudy.Dataset()
	var cites []float64
	for _, p := range d.Papers {
		cites = append(cites, float64(p.Citations36))
	}
	for _, mode := range []struct {
		name string
		rule stats.BandwidthRule
	}{{"silverman", stats.Silverman}, {"scott", stats.Scott}} {
		b.Run(mode.name, func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				kde, err := stats.NewKDE(cites, mode.rule)
				if err != nil {
					b.Fatal(err)
				}
				kde.Evaluate(256)
				bw = kde.Bandwidth()
			}
			b.ReportMetric(bw, "bandwidth")
		})
	}
}

// BenchmarkAblationWelchVsPooled contrasts Welch's t-test (the paper's
// choice, robust to the unbalanced 53-vs-435 groups with unequal
// variances) against the pooled-variance test on the Fig 2 samples.
func BenchmarkAblationWelchVsPooled(b *testing.B) {
	res, err := core.CitationReception(benchStudy.Dataset(), 0)
	if err != nil {
		b.Fatal(err)
	}
	// Rebuild the two samples from the corpus.
	var fem, mal []float64
	d := benchStudy.Dataset()
	for _, p := range d.Papers {
		lead, ok := d.Person(p.Lead())
		if !ok || !lead.Gender.Known() {
			continue
		}
		c := float64(p.Citations36)
		if lead.Gender == gender.Female {
			if p.Citations36 <= res.OutlierThreshold {
				fem = append(fem, c)
			}
		} else {
			mal = append(mal, c)
		}
	}
	for _, mode := range []struct {
		name string
		fn   func(x, y []float64) (stats.TTestResult, error)
	}{{"welch", stats.WelchTTest}, {"pooled", stats.PooledTTest}} {
		b.Run(mode.name, func(b *testing.B) {
			var tt stats.TTestResult
			for i := 0; i < b.N; i++ {
				tt, err = mode.fn(fem, mal)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tt.DF, "df")
			b.ReportMetric(tt.P, "p")
		})
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// --- Extension benches (paper future work implemented) ---

func BenchmarkExtCollaborationPatterns(b *testing.B) {
	d := benchStudy.Dataset()
	var res core.CollaborationAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.CollaborationPatterns(d)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Mixing.Assortativity, "assortativity")
	b.ReportMetric(float64(res.Edges), "coauthor_pairs")
}

func BenchmarkExtMultiplicityCorrection(b *testing.B) {
	d := benchStudy.Dataset()
	var res core.MultiplicityAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.FamilyCorrection(d, benchStudy.SCID(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.RawRejections), "raw_rejections")
	b.ReportMetric(float64(res.Survivors), "holm_survivors")
}

func BenchmarkExtTrendRegression(b *testing.B) {
	points := core.FlagshipTrend(benchFlagship.Dataset())
	var regs []core.TrendRegression
	var err error
	for i := 0; i < b.N; i++ {
		regs, err = core.TrendRegressions(points)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*regs[0].Fit.Slope, "SC_slope_pp_per_year")
}

func BenchmarkExtGenderInferenceBenchmark(b *testing.B) {
	// Evaluate the simulated genderize service over the corpus forenames
	// with ground truth, reproducing the accuracy benchmark of the
	// paper's reference [39].
	d := benchStudy.Dataset()
	var items []gender.LabeledName
	for _, p := range d.Persons {
		if !p.TrueGender.Known() || p.Forename == "" {
			continue
		}
		items = append(items, gender.LabeledName{
			Forename:    p.Forename,
			CountryCode: p.CountryCode,
			Truth:       p.TrueGender,
		})
	}
	var conf gender.Confusion
	var err error
	for i := 0; i < b.N; i++ {
		conf, err = gender.Evaluate(gender.BankGenderizer{}, items, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(conf.ErrorCoded()*100, "errorCoded_%")
	b.ReportMetric(conf.NACoded()*100, "naCoded_%")
}

func BenchmarkExtSubfieldComparison(b *testing.B) {
	ext, err := NewStudyFromConfig(synth.ExtendedSystems(2021))
	if err != nil {
		b.Fatal(err)
	}
	var res core.SubfieldAnalysis
	for i := 0; i < b.N; i++ {
		res, err = ext.Subfields()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.HPC.Ratio(), "HPC_FAR_%")
	b.ReportMetric(100*res.Others.Ratio(), "other_subfields_FAR_%")
}

func BenchmarkExtendedCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.ExtendedSystems(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSVRoundTrip(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		if err := benchStudy.Save(dir); err != nil {
			b.Fatal(err)
		}
		if _, err := Load(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtCitationTrajectory(b *testing.B) {
	d := benchStudy.Dataset()
	var res core.ReceptionOverTime
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.CitationTrajectory(d, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GapAt36, "gap_at_36mo")
}

func BenchmarkExtDistributionGapKS(b *testing.B) {
	d := benchStudy.Dataset()
	var gap core.GenderGapKS
	var err error
	for i := 0; i < b.N; i++ {
		gap, err = core.DistributionGap(d, core.MetricHIndex, dataset.RoleAuthor)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gap.KS.D, "KS_D")
	b.ReportMetric(gap.KS.P, "KS_p")
}

func BenchmarkExtConferenceProfiles(b *testing.B) {
	d := benchStudy.Dataset()
	var profiles []core.ConferenceProfile
	var err error
	for i := 0; i < b.N; i++ {
		profiles, err = core.ProfileAll(d)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(profiles)), "conferences")
}

func BenchmarkExtReplicationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study, err := ReplicateDefault(3, uint64(1000+i*10))
		if err != nil {
			b.Fatal(err)
		}
		if m, ok := study.Metric("overall FAR"); ok {
			b.ReportMetric(100*m.Summary.Mean, "mean_FAR_%")
			b.ReportMetric(100*m.Summary.StdDev, "FAR_sd_pp")
		}
	}
}

func BenchmarkExtGSLinkage(b *testing.B) {
	d := benchStudy.Dataset()
	var res core.LinkageAnalysis
	for i := 0; i < b.N; i++ {
		res = core.GSLinkage(d)
	}
	b.ReportMetric(100*res.Coverage, "coverage_%")
	b.ReportMetric(float64(res.AmbiguousNames), "ambiguous_names")
}

func BenchmarkExtDiversityPolicy(b *testing.B) {
	d := benchStudy.Dataset()
	var res core.PolicyComparison
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.DiversityPolicy(d)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.FARWith.Ratio(), "policy_FAR_%")
	b.ReportMetric(100*res.InvitedWith.Ratio(), "policy_invited_%")
}
