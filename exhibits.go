package repro

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/cite"
	"repro/internal/core"
	"repro/internal/report"
)

// Exhibit is one addressable table or figure of the reproduction: a stable
// identifier, the report section heading, and a renderer bound to the study
// it came from. The ID is the contract the serving layer keys its memoized
// exhibit cache on (and the /v1/exhibits API exposes): it never changes for
// a given exhibit, while Title matches the section heading WriteReport
// prints. Render is deterministic — the same study yields byte-identical
// output on every call — which is what makes cached exhibit bytes
// indistinguishable from a fresh render.
type Exhibit struct {
	// ID is the stable, URL-safe identifier of the exhibit.
	ID string
	// Title is the section heading, exactly as WriteReport prints it.
	Title string
	// Render writes the exhibit to w. It may return core.ErrNotApplicable
	// when the study's corpus lacks the scope the exhibit needs (e.g. the
	// flagship series has no single-blind venue).
	Render func(w io.Writer) error
}

// exhibitDef is one row of the static exhibit table: the exhibit's stable
// ID, its report heading, and its renderer, which reads the study's current
// dataset and SC edition at render time.
type exhibitDef struct {
	id, title string
	render    func(s *Study, w io.Writer) error
	// harvest marks the exhibits only harvested studies carry.
	harvest bool
}

// exhibitTable lists every exhibit in report order; the harvest-only
// exhibits come last.
var exhibitTable = []exhibitDef{
	{id: "table1", title: "Table 1 — Conferences",
		render: func(s *Study, w io.Writer) error { return report.Table1(w, s.data) }},
	{id: "conference-profiles", title: "Conference profiles",
		render: func(s *Study, w io.Writer) error { return report.ConferenceProfiles(w, s.data) }},
	{id: "linkage", title: "§2 — Google Scholar linkage",
		render: func(s *Study, w io.Writer) error { return report.Linkage(w, s.data) }},
	{id: "fig1-roles", title: "Fig 1 — Representation of women across conference roles",
		render: func(s *Study, w io.Writer) error { return report.Fig1(w, s.data) }},
	{id: "sec31-authors", title: "§3.1 — Authors",
		render: func(s *Study, w io.Writer) error { return report.Sec31(w, s.data) }},
	{id: "sec32-pc", title: "§3.2 — Program committee",
		render: func(s *Study, w io.Writer) error { return report.Sec32(w, s.data, s.scID) }},
	{id: "sec33-visible-roles", title: "§3.3 — Visible roles",
		render: func(s *Study, w io.Writer) error { return report.Sec33(w, s.data) }},
	{id: "sec34-flagship-trend", title: "§3.4 — Flagship time series",
		render: func(s *Study, w io.Writer) error { return report.Sec34(w, s.data) }},
	{id: "sec41-hpc-topic", title: "§4.1 — HPC-only topic subset",
		render: func(s *Study, w io.Writer) error { return report.Sec41(w, s.data) }},
	{id: "fig2-reception", title: "§4.2 / Fig 2 — Paper reception",
		render: func(s *Study, w io.Writer) error { return report.Fig2(w, s.data) }},
	{id: "fig3-gs-pubs", title: "Fig 3 — Past publications (Google Scholar)",
		render: func(s *Study, w io.Writer) error { return report.ExperienceFig(w, s.data, core.MetricGSPublications) }},
	{id: "fig4-hindex", title: "Fig 4 — h-index",
		render: func(s *Study, w io.Writer) error { return report.ExperienceFig(w, s.data, core.MetricHIndex) }},
	{id: "fig5-s2-pubs", title: "Fig 5 — Past publications (Semantic Scholar)",
		render: func(s *Study, w io.Writer) error { return report.ExperienceFig(w, s.data, core.MetricS2Publications) }},
	{id: "fig6-bands", title: "Fig 6 — Experience bands",
		render: func(s *Study, w io.Writer) error { return report.Fig6(w, s.data) }},
	{id: "table2-countries", title: "Table 2 — Top countries",
		render: func(s *Study, w io.Writer) error { return report.Table2(w, s.data) }},
	{id: "fig7-country-representation", title: "Fig 7 — Country representation",
		render: func(s *Study, w io.Writer) error { return report.Fig7(w, s.data) }},
	{id: "table3-regions", title: "Table 3 — Regions by role",
		render: func(s *Study, w io.Writer) error { return report.Table3(w, s.data) }},
	{id: "fig8-sectors", title: "Fig 8 — Sector representation",
		render: func(s *Study, w io.Writer) error { return report.Fig8(w, s.data) }},
	{id: "sensitivity", title: "Sensitivity — unknown-gender forcing",
		render: func(s *Study, w io.Writer) error { return report.Sensitivity(w, s.data, s.scID) }},
	{id: "ext-collaboration", title: "Extension — collaboration patterns by gender",
		render: func(s *Study, w io.Writer) error { return report.Collaboration(w, s.data) }},
	{id: "ext-multiplicity", title: "Extension — multiplicity correction (Holm)",
		render: func(s *Study, w io.Writer) error { return report.Multiplicity(w, s.data, s.scID) }},
	{id: "ext-trend-regressions", title: "Extension — FAR trend regressions",
		render: func(s *Study, w io.Writer) error { return report.TrendRegressionsSection(w, s.data) }},
	{id: "ext-policy", title: "Extension — diversity-policy contrast",
		render: func(s *Study, w io.Writer) error { return report.Policy(w, s.data) }},
	{id: "ext-trajectory", title: "Extension — reception over time",
		render: func(s *Study, w io.Writer) error { return report.Trajectory(w, s.data) }},
	{id: "ext-distribution-gaps", title: "Extension — distribution gaps (Kolmogorov-Smirnov)",
		render: func(s *Study, w io.Writer) error { return report.DistributionGaps(w, s.data) }},
	{id: "ext-subfields", title: "Extension — FAR by systems subfield",
		render: func(s *Study, w io.Writer) error { return report.Subfields(w, s.data) }},
	{id: "ext-cohort-retention", title: "Extension — cohort retention across editions",
		render: func(s *Study, w io.Writer) error { return report.CohortRetentionSection(w, s.data) }},
	{id: "ext-citation-flow", title: "Extension — gendered citation flow",
		render: func(s *Study, w io.Writer) error {
			a, err := s.CitationFlow()
			if errors.Is(err, cite.ErrNoEdges) {
				return fmt.Errorf("%w: %w", core.ErrNotApplicable, err)
			}
			if err != nil {
				return err
			}
			return report.CitationFlow(w, a, len(s.data.Papers))
		}},
	{id: "harvest", title: "Harvest — resilient ingestion", harvest: true,
		render: func(s *Study, w io.Writer) error { return report.Harvest(w, s.harvest) }},
	{id: "coverage-sensitivity", title: "Sensitivity — degraded coverage", harvest: true,
		render: func(s *Study, w io.Writer) error {
			return report.CoverageSensitivity(w, s.baseline, s.data, s.scID)
		}},
}

// exhibitIndex maps each exhibit ID to its exhibitTable row.
var exhibitIndex = func() map[string]int {
	m := make(map[string]int, len(exhibitTable))
	for i, def := range exhibitTable {
		m[def.id] = i
	}
	return m
}()

// bind returns def as an exhibit of s.
func (def *exhibitDef) bind(s *Study) Exhibit {
	return Exhibit{ID: def.id, Title: def.title, Render: func(w io.Writer) error { return def.render(s, w) }}
}

// Exhibits enumerates every exhibit of the study, in report order, with
// stable IDs and titles. Harvested studies carry two extra exhibits at the
// end (the ingestion report and the degraded-coverage sensitivity). The
// IDs, order, and rendered bytes are deterministic for a given study.
// WriteReport, whpc -list and the whpcd serving layer all derive their
// exhibit lists from this single enumeration. Renders read the study
// as it is when they run, so an exhibit taken before ApplyDeltaFile renders
// the grown study.
func (s *Study) Exhibits() []Exhibit {
	exhibits := make([]Exhibit, 0, len(exhibitTable))
	for i := range exhibitTable {
		if def := &exhibitTable[i]; !def.harvest || s.harvest != nil {
			exhibits = append(exhibits, def.bind(s))
		}
	}
	return exhibits
}

// Exhibit returns the exhibit with the given stable ID, or ok=false when
// the study has no exhibit by that name (harvest exhibits exist only on
// harvested studies).
func (s *Study) Exhibit(id string) (Exhibit, bool) {
	i, ok := exhibitIndex[id]
	if !ok || exhibitTable[i].harvest && s.harvest == nil {
		return Exhibit{}, false
	}
	return exhibitTable[i].bind(s), true
}
