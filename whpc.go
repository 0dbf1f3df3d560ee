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
	"repro/internal/collab"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faulty"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/synth"
)

// Study wraps a corpus with the paper's analyses. The zero value is not
// usable; construct with NewStudy or NewStudyFromConfig (generated),
// NewHarvestedStudy (generated, then harvested through a fault profile),
// FromDataset or Load (a corpus of your own), or OpenSnapshotFile (a
// snapshot written by SaveSnapshot; OpenSnapshotFileInjected threads a
// chaos injector through the read).
//
// A Study method exists only where a program calls it. Every other analysis
// is reached through Exhibit(id), WriteReport or ExhibitCSV.
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
	// ad-hoc query (see Frames). Its citations frame is the study's only
	// stored copy of the citation graph.
	framesOnce sync.Once
	frames     *query.FrameSet
}

// NewStudy generates the paper's main 2017 nine-conference corpus with the
// given seed and returns it wrapped in a Study.
func NewStudy(seed uint64) (*Study, error) {
	return NewStudyFromConfig(synth.Default2017(seed))
}

// NewStudyFromConfig generates a corpus from a custom calibration.
func NewStudyFromConfig(cfg synth.Config) (*Study, error) {
	corpus, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &Study{data: corpus.Data, scID: findSC(corpus.Data)}, nil
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

// NewHarvestedStudy generates the corpus cfg calibrates (e.g.
// synth.Default2017, synth.FlagshipSeries or synth.ExtendedSystems), then
// re-links every researcher's bibliometric record by harvesting the
// simulated Google Scholar and Semantic Scholar services through the named
// fault profile ("clean", "flaky", "degraded", "outage"). Under "clean" the
// result is identical to NewStudyFromConfig; under faulty profiles the
// analyses run on the degraded coverage the harvest achieved, and the
// report annotates which exhibits consumed partial data. The hooks (the
// zero HarvestHooks for none) see every retry and outcome as the harvest
// workers progress, rather than only the aggregate HarvestReport at the end.
func NewHarvestedStudy(cfg synth.Config, profile string, hooks HarvestHooks) (*Study, error) {
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
		return core.CoverageSensitivity{}, fmt.Errorf("repro: study has no harvest (construct it with NewHarvestedStudy(cfg, profile, hooks))")
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

// Roles computes the Fig 1 role-representation matrix.
func (s *Study) Roles() core.RoleTable { return core.RoleRepresentation(s.data) }

// PC computes the §3.2 program-committee analysis.
func (s *Study) PC() (core.PCAnalysis, error) {
	return core.ProgramCommittee(s.data, s.scID)
}

// Bands computes the Fig 6 experience-band stratification.
func (s *Study) Bands() (core.BandAnalysis, error) {
	return core.ExperienceBands(s.data)
}

// Sensitivity runs the Limitations-section unknown-gender forcing.
func (s *Study) Sensitivity() (core.SensitivityResult, error) {
	return core.SensitivityAnalysis(s.data, s.scID)
}

// Trend computes the §3.4 per-series FAR trajectory.
func (s *Study) Trend() []core.SeriesPoint { return core.FlagshipTrend(s.data) }

// CitationGraph synthesizes the study's citation graph as an edge list,
// for library callers that walk individual edges. It is not memoized: each
// call is a full cite.Synthesize of the corpus. The study's own citation
// analyses read the citations frame instead (see CitationFlow).
func (s *Study) CitationGraph() *cite.Graph { return cite.Synthesize(s.data) }

// citeMixingQuery counts citation edges by (citing lead, cited lead)
// gender: the directed mixing half of cite.Analyze.
var citeMixingQuery = &query.Query{
	Frame:   query.FrameCitations,
	GroupBy: []query.Key{{Col: "src_lead_gender"}, {Col: "dst_lead_gender"}},
	Aggs:    []query.Agg{{Op: "count", As: "edges"}},
}

// CitationFlow computes the gendered citation-flow analysis over the
// citations frame: observed vs null-model female-led citation shares per
// citing-team category (the cite_flow exhibit query), Nakajima-style
// over/under-citation ratios, and directed lead-gender assortativity. It
// equals cite.Analyze over cite.Synthesize of the corpus, errors included.
func (s *Study) CitationFlow() (cite.Analysis, error) {
	flows, err := s.Query(familyQueries["cite_flow"])
	if err != nil {
		return cite.Analysis{}, err
	}
	// Rows: one per team in cite.TeamCategories order (complete), then the
	// ALL totals row; columns team, edges, women_cited, known_cited,
	// observed_share, null_women, null_known, null_share.
	var a cite.Analysis
	for _, r := range flows.Rows {
		f := cite.Flow{
			Team:     r[0].S,
			Edges:    int(r[1].I),
			Observed: stats.Proportion{K: int(r[2].I), N: int(r[3].I)},
			Null:     stats.Proportion{K: int(r[5].I), N: int(r[6].I)},
		}
		if f.Team == "ALL" {
			a.Overall = f
		} else {
			a.Flows = append(a.Flows, f)
		}
	}
	if a.Overall.Edges == 0 {
		return a, cite.ErrNoEdges
	}
	mixing, err := s.Query(citeMixingQuery)
	if err != nil {
		return a, err
	}
	var ff, fm, mf, mm int
	for _, r := range mixing.Rows {
		n := int(r[2].I)
		switch [2]string{r[0].S, r[1].S} {
		case [2]string{"female", "female"}:
			ff += n
		case [2]string{"female", "male"}:
			fm += n
		case [2]string{"male", "female"}:
			mf += n
		case [2]string{"male", "male"}:
			mm += n
		}
	}
	if a.Mixing, err = collab.DirectedMixingAnalysis(ff, fm, mf, mm); err != nil {
		return a, fmt.Errorf("cite: %w", err)
	}
	return a, nil
}

// Subfields compares FAR across systems subfields (extended corpus).
func (s *Study) Subfields() (core.SubfieldAnalysis, error) {
	return core.SubfieldComparison(s.data)
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
