// Package repro is a Go reproduction of "Representation of Women in HPC
// Conferences" (Frachtenberg & Kaner, SC '21). It bundles a calibrated
// synthetic-corpus generator standing in for the paper's manually scraped
// dataset, the full statistical analysis pipeline (female author ratios,
// role representation, blind-review and author-position contrasts, citation
// reception, experience stratification, geography, sector, and the
// unknown-gender sensitivity analysis), and text renderers that regenerate
// every table and figure in the paper.
//
// Quick start:
//
//	study, err := repro.NewStudy(42)
//	if err != nil { ... }
//	far := study.FAR()
//	fmt.Printf("overall FAR: %s\n", far.Overall) // ~10% of authors are women
//	study.WriteReport(os.Stdout)                 // the whole paper
//
// The corpus is deterministic per seed; the same seed always reproduces
// the identical dataset, mirroring the frozen-CSV artifact of the original
// paper. Use Save/Load to round-trip a corpus through CSV files.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/cite"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faulty"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/synth"
)

// Study wraps a corpus with the paper's analyses. The zero value is not
// usable; construct with NewStudy, NewFlagshipStudy, NewStudyFromConfig or
// Load.
type Study struct {
	data *dataset.Dataset
	// scID is the SC edition used by the §3.2 PC breakdown ("" when the
	// corpus carries no SC).
	scID dataset.ConfID
	// harvest and baseline are set by the harvested construction path:
	// baseline is the pristine generated corpus, data the (possibly
	// degraded) corpus the harvest achieved, harvest the ingestion
	// report. All nil/empty for directly constructed studies.
	harvest  *ingest.HarvestReport
	baseline *dataset.Dataset
	// framesOnce/frames lazily build the columnar FrameSet shared by every
	// ad-hoc query (see Frames); exhibitsMu/exhibitsByID lazily index the
	// exhibit enumeration by ID for the serve path (see Exhibit). ApplyDelta
	// drops the exhibit index — its render closures capture the pre-delta
	// dataset — and bumps revision, the counter serve-layer caches key on.
	framesOnce   sync.Once
	frames       *query.FrameSet
	exhibitsMu   sync.Mutex
	exhibitsByID map[string]Exhibit
	revision     uint64
	// citeMu/citeGraph lazily hold the synthesized citation graph (see
	// CitationGraph). ApplyDelta extends it with the appended conference's
	// edges, which by construction equals a resynthesis of the grown corpus.
	citeMu    sync.Mutex
	citeGraph *cite.Graph
}

// NewStudy generates the paper's main 2017 nine-conference corpus with the
// given seed and returns it wrapped in a Study.
func NewStudy(seed uint64) (*Study, error) {
	return NewStudyFromConfig(synth.Default2017(seed))
}

// NewFlagshipStudy generates the §3.4 SC/ISC 2016-2020 corpus.
func NewFlagshipStudy(seed uint64) (*Study, error) {
	return NewStudyFromConfig(synth.FlagshipSeries(seed))
}

// NewExtendedStudy generates the future-work extended corpus: the nine HPC
// venues plus a cross-section of other computer-systems subfields.
func NewExtendedStudy(seed uint64) (*Study, error) {
	return NewStudyFromConfig(synth.ExtendedSystems(seed))
}

// NewStudyFromConfig generates a corpus from a custom calibration.
func NewStudyFromConfig(cfg synth.Config) (*Study, error) {
	corpus, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &Study{data: corpus.Data, scID: findSC(corpus.Data)}, nil
}

// NewHarvestedStudy generates the main 2017 corpus, then re-links every
// researcher's bibliometric record by harvesting the simulated Google
// Scholar and Semantic Scholar services through the named fault profile
// ("clean", "flaky", "degraded", "outage"). Under "clean" the result is
// identical to NewStudy; under faulty profiles the analyses run on the
// degraded coverage the harvest achieved, and the report annotates which
// exhibits consumed partial data.
func NewHarvestedStudy(seed uint64, profile string) (*Study, error) {
	return NewHarvestedStudyFromConfig(synth.Default2017(seed), profile)
}

// NewHarvestedStudyFromConfig is NewHarvestedStudy over a custom corpus
// calibration (e.g. synth.FlagshipSeries or synth.ExtendedSystems).
func NewHarvestedStudyFromConfig(cfg synth.Config, profile string) (*Study, error) {
	return NewObservedHarvestedStudy(cfg, profile, HarvestHooks{})
}

// HarvestHooks forwards live harvest telemetry (retries and per-researcher
// outcomes) to an observer such as the whpcd metrics registry. Callbacks
// fire concurrently from harvest workers and must be safe for concurrent
// use; nil funcs are skipped. Hooks observe the run without influencing it,
// so an observed harvest stays byte-identical to an unobserved one.
type HarvestHooks struct {
	// OnRetry fires once per retried bibliometric lookup attempt.
	OnRetry func()
	// OnOutcome fires once per researcher with the final outcome name
	// (linked-gs, fallback-s2, s2-only, abandoned).
	OnOutcome func(outcome string)
}

// NewObservedHarvestedStudy is NewHarvestedStudyFromConfig with live
// telemetry: the hooks see every retry and outcome as the harvest workers
// progress, rather than only the aggregate HarvestReport at the end.
func NewObservedHarvestedStudy(cfg synth.Config, profile string, hooks HarvestHooks) (*Study, error) {
	prof, err := faulty.ByName(profile)
	if err != nil {
		return nil, err
	}
	corpus, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	icfg := ingest.Config{Seed: cfg.Seed, Profile: prof, Hooks: ingest.Hooks{OnRetry: hooks.OnRetry}}
	if hooks.OnOutcome != nil {
		icfg.Hooks.OnOutcome = func(o ingest.Outcome) { hooks.OnOutcome(o.String()) }
	}
	h, err := ingest.New(corpus.GS, corpus.S2, icfg)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(corpus.Data.Persons))
	for id := range corpus.Data.Persons {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	//whpcvet:ignore ctxflow study construction takes no context: whpcd shares builds across requests, so no caller's deadline may cut one short
	rep, err := h.Run(context.Background(), ids)
	if err != nil {
		return nil, fmt.Errorf("repro: harvest failed: %w", err)
	}
	degraded := ingest.Apply(corpus.Data, rep)
	if err := degraded.Validate(); err != nil {
		return nil, fmt.Errorf("repro: harvested corpus failed validation: %w", err)
	}
	return &Study{
		data:     degraded,
		scID:     findSC(degraded),
		harvest:  rep,
		baseline: corpus.Data,
	}, nil
}

// Harvest returns the ingestion report of a harvested study (nil for
// studies constructed without a harvest).
func (s *Study) Harvest() *ingest.HarvestReport { return s.harvest }

// CoverageSensitivity contrasts the analyses on the pristine corpus with
// the same analyses on the coverage the harvest achieved. It errors for
// studies constructed without a harvest.
func (s *Study) CoverageSensitivity() (core.CoverageSensitivity, error) {
	if s.harvest == nil || s.baseline == nil {
		return core.CoverageSensitivity{}, fmt.Errorf("repro: study has no harvest (use NewHarvestedStudy)")
	}
	return core.CoverageSensitivityAnalysis(s.baseline, s.data, s.scID)
}

// FromDataset wraps an existing dataset (e.g. hand-loaded CSVs of a real
// corpus) in a Study.
func FromDataset(d *dataset.Dataset) (*Study, error) {
	if d == nil {
		return nil, fmt.Errorf("repro: nil dataset")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &Study{data: d, scID: findSC(d)}, nil
}

// Load reads a corpus previously written with Save.
func Load(dir string) (*Study, error) {
	d, err := dataset.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return &Study{data: d, scID: findSC(d)}, nil
}

// Save writes the corpus as CSV files into dir.
func (s *Study) Save(dir string) error { return s.data.SaveDir(dir) }

// Dataset exposes the underlying corpus for custom analyses.
func (s *Study) Dataset() *dataset.Dataset { return s.data }

// SCID returns the SC conference edition used for SC-specific breakdowns.
func (s *Study) SCID() dataset.ConfID { return s.scID }

func findSC(d *dataset.Dataset) dataset.ConfID {
	// Prefer the 2017 edition when several SC years are present.
	var first dataset.ConfID
	for _, c := range d.Conferences {
		if c.Name != "SC" {
			continue
		}
		if first == "" {
			first = c.ID
		}
		if c.Year == 2017 {
			return c.ID
		}
	}
	return first
}

// FAR computes the §3.1 female author ratios (overall and per conference).
func (s *Study) FAR() core.FARResult { return core.AuthorFAR(s.data) }

// BlindReview computes the §3.1 double- vs single-blind contrast.
func (s *Study) BlindReview() (core.BlindComparison, error) {
	return core.CompareBlindReview(s.data)
}

// Positions computes the §3.1 lead/last author-position analysis.
func (s *Study) Positions() (core.PositionComparison, error) {
	return core.CompareAuthorPositions(s.data)
}

// Roles computes the Fig 1 role-representation matrix.
func (s *Study) Roles() core.RoleTable { return core.RoleRepresentation(s.data) }

// PC computes the §3.2 program-committee analysis.
func (s *Study) PC() (core.PCAnalysis, error) {
	return core.ProgramCommittee(s.data, s.scID)
}

// VisibleRoles computes the §3.3 keynote/panelist/session-chair analysis.
func (s *Study) VisibleRoles() []core.VisibleRoleStats {
	return core.VisibleRoles(s.data)
}

// Topic computes the §4.1 HPC-only subset analysis.
func (s *Study) Topic() (core.TopicAnalysis, error) {
	return core.HPCOnlySubset(s.data)
}

// Citations computes the §4.2 / Fig 2 reception analysis. A threshold of 0
// uses the paper's 450-citation outlier cutoff.
func (s *Study) Citations(outlierThreshold int) (core.CitationAnalysis, error) {
	return core.CitationReception(s.data, outlierThreshold)
}

// Experience computes the Fig 3/4/5 distribution samples for a metric.
func (s *Study) Experience(m core.Metric) ([]core.GroupSample, error) {
	return core.ExperienceDistributions(s.data, m)
}

// ScholarSources computes the §5.1 GS-vs-S2 correlation.
func (s *Study) ScholarSources() (core.SourceCorrelation, error) {
	return core.CompareScholarSources(s.data)
}

// Bands computes the Fig 6 experience-band stratification.
func (s *Study) Bands() (core.BandAnalysis, error) {
	return core.ExperienceBands(s.data)
}

// TopCountries computes Table 2 (limit 0 returns all countries).
func (s *Study) TopCountries(limit int) []core.CountryRow {
	return core.TopCountries(s.data, limit)
}

// CountriesWithMinAuthors computes Fig 7.
func (s *Study) CountriesWithMinAuthors(min int) []core.CountryRow {
	return core.CountriesWithMinAuthors(s.data, min)
}

// Regions computes Table 3.
func (s *Study) Regions() []core.RegionRow { return core.RegionRoleTable(s.data) }

// Concentration computes the §5.2 US / Western-Europe shares.
func (s *Study) Concentration() core.GeographyConcentration {
	return core.Concentration(s.data)
}

// Sectors computes the §5.3 / Fig 8 work-sector analysis.
func (s *Study) Sectors() (core.SectorAnalysis, error) {
	return core.SectorRepresentation(s.data)
}

// Sensitivity runs the Limitations-section unknown-gender forcing.
func (s *Study) Sensitivity() (core.SensitivityResult, error) {
	return core.SensitivityAnalysis(s.data, s.scID)
}

// Trend computes the §3.4 per-series FAR trajectory.
func (s *Study) Trend() []core.SeriesPoint { return core.FlagshipTrend(s.data) }

// TrendRegressions fits FAR-on-year slopes per series (the "no clear
// trend" test behind §3.4).
func (s *Study) TrendRegressions() ([]core.TrendRegression, error) {
	return core.TrendRegressions(core.FlagshipTrend(s.data))
}

// Collaboration computes the future-work coauthorship-network analysis:
// gender mixing, collaborator counts and team sizes.
func (s *Study) Collaboration() (core.CollaborationAnalysis, error) {
	return core.CollaborationPatterns(s.data)
}

// CitationGraph returns the study's synthesized citation graph, built
// lazily on first use (or installed from a snapshot) and shared by every
// subsequent citation analysis. Synthesis is a pure function of the
// corpus, so a cached graph is indistinguishable from a fresh one.
func (s *Study) CitationGraph() *cite.Graph {
	s.citeMu.Lock()
	defer s.citeMu.Unlock()
	if s.citeGraph == nil {
		s.citeGraph = cite.Synthesize(s.data)
	}
	return s.citeGraph
}

// CitationFlow computes the gendered citation-flow analysis over the
// citation graph: observed vs null-model female-led citation shares per
// citing-team category, Nakajima-style over/under-citation ratios, and
// directed lead-gender assortativity.
func (s *Study) CitationFlow() (cite.Analysis, error) {
	return cite.Analyze(s.data, s.CitationGraph())
}

// Multiplicity applies the Holm-Bonferroni correction across the paper's
// family of significance tests (alpha 0 means 0.05).
func (s *Study) Multiplicity(alpha float64) (core.MultiplicityAnalysis, error) {
	return core.FamilyCorrection(s.data, s.scID, alpha)
}

// Subfields compares FAR across systems subfields (extended corpus).
func (s *Study) Subfields() (core.SubfieldAnalysis, error) {
	return core.SubfieldComparison(s.data)
}

// Trajectory computes mean citations by lead gender at intermediate
// post-publication months (the paper's suggested follow-up analysis).
func (s *Study) Trajectory(months ...float64) (core.ReceptionOverTime, error) {
	return core.CitationTrajectory(s.data, 0, months...)
}

// DistributionGap runs the Kolmogorov-Smirnov comparison of a
// bibliometric metric between women and men for a role.
func (s *Study) DistributionGap(m core.Metric, role dataset.Role) (core.GenderGapKS, error) {
	return core.DistributionGap(s.data, m, role)
}

// Profile assembles the one-stop per-conference summary.
func (s *Study) Profile(id dataset.ConfID) (core.ConferenceProfile, error) {
	return core.ProfileConference(s.data, id)
}

// Profiles assembles summaries for every conference in the corpus.
func (s *Study) Profiles() ([]core.ConferenceProfile, error) {
	return core.ProfileAll(s.data)
}

// Linkage quantifies the Google Scholar name-disambiguation problem over
// the corpus (the mechanism behind the paper's 68.3% coverage).
func (s *Study) Linkage() core.LinkageAnalysis { return core.GSLinkage(s.data) }

// Policy contrasts venues with and without diversity initiatives.
func (s *Study) Policy() (core.PolicyComparison, error) {
	return core.DiversityPolicy(s.data)
}

// ReplicateDefault runs the headline analyses over n independently seeded
// copies of the main 2017 corpus and summarizes the sampling distribution
// of each statistic — how much future measurements could differ from the
// paper's by noise alone.
func ReplicateDefault(n int, baseSeed uint64) (core.ReplicationStudy, error) {
	return core.Replicate(n, func(i int) (*dataset.Dataset, dataset.ConfID, error) {
		corpus, err := synth.Generate(synth.Default2017(baseSeed + uint64(i)))
		if err != nil {
			return nil, "", err
		}
		return corpus.Data, findSC(corpus.Data), nil
	})
}

// WriteReport renders the complete paper reproduction — every table and
// figure — to w, iterating the Exhibits enumeration in order.
func (s *Study) WriteReport(w io.Writer) error {
	for _, ex := range s.Exhibits() {
		if _, err := fmt.Fprintf(w, "\n========== %s ==========\n", ex.Title); err != nil {
			return err
		}
		err := ex.Render(w)
		if errors.Is(err, core.ErrNotApplicable) {
			// Corpora differ in scope (the flagship series has no
			// single-blind venue, a custom corpus may carry no topic
			// tags); note the gap and keep reporting.
			if _, werr := fmt.Fprintf(w, "(not applicable to this corpus: %v)\n", err); werr != nil {
				return werr
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("repro: rendering %q: %w", ex.Title, err)
		}
	}
	return nil
}
