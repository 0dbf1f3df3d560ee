package repro

import (
	"io"

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

// Exhibits enumerates every exhibit of the study, in report order, with
// stable IDs and titles. Harvested studies carry two extra exhibits at the
// end (the ingestion report and the degraded-coverage sensitivity). The
// slice is rebuilt on each call; the IDs, order, and rendered bytes are
// deterministic for a given study. WriteReport, the CSV exporter, and the
// whpcd serving layer all derive their exhibit lists from this single
// enumeration.
func (s *Study) Exhibits() []Exhibit {
	d := s.data
	scID := s.scID
	exhibits := []Exhibit{
		{"table1", "Table 1 — Conferences",
			func(w io.Writer) error { return report.Table1(w, d) }},
		{"conference-profiles", "Conference profiles",
			func(w io.Writer) error { return report.ConferenceProfiles(w, d) }},
		{"linkage", "§2 — Google Scholar linkage",
			func(w io.Writer) error { return report.Linkage(w, d) }},
		{"fig1-roles", "Fig 1 — Representation of women across conference roles",
			func(w io.Writer) error { return report.Fig1(w, d) }},
		{"sec31-authors", "§3.1 — Authors",
			func(w io.Writer) error { return report.Sec31(w, d) }},
		{"sec32-pc", "§3.2 — Program committee",
			func(w io.Writer) error { return report.Sec32(w, d, scID) }},
		{"sec33-visible-roles", "§3.3 — Visible roles",
			func(w io.Writer) error { return report.Sec33(w, d) }},
		{"sec34-flagship-trend", "§3.4 — Flagship time series",
			func(w io.Writer) error { return report.Sec34(w, d) }},
		{"sec41-hpc-topic", "§4.1 — HPC-only topic subset",
			func(w io.Writer) error { return report.Sec41(w, d) }},
		{"fig2-reception", "§4.2 / Fig 2 — Paper reception",
			func(w io.Writer) error { return report.Fig2(w, d) }},
		{"fig3-gs-pubs", "Fig 3 — Past publications (Google Scholar)",
			func(w io.Writer) error { return report.ExperienceFig(w, d, core.MetricGSPublications) }},
		{"fig4-hindex", "Fig 4 — h-index",
			func(w io.Writer) error { return report.ExperienceFig(w, d, core.MetricHIndex) }},
		{"fig5-s2-pubs", "Fig 5 — Past publications (Semantic Scholar)",
			func(w io.Writer) error { return report.ExperienceFig(w, d, core.MetricS2Publications) }},
		{"fig6-bands", "Fig 6 — Experience bands",
			func(w io.Writer) error { return report.Fig6(w, d) }},
		{"table2-countries", "Table 2 — Top countries",
			func(w io.Writer) error { return report.Table2(w, d) }},
		{"fig7-country-representation", "Fig 7 — Country representation",
			func(w io.Writer) error { return report.Fig7(w, d) }},
		{"table3-regions", "Table 3 — Regions by role",
			func(w io.Writer) error { return report.Table3(w, d) }},
		{"fig8-sectors", "Fig 8 — Sector representation",
			func(w io.Writer) error { return report.Fig8(w, d) }},
		{"sensitivity", "Sensitivity — unknown-gender forcing",
			func(w io.Writer) error { return report.Sensitivity(w, d, scID) }},
		{"ext-collaboration", "Extension — collaboration patterns by gender",
			func(w io.Writer) error { return report.Collaboration(w, d) }},
		{"ext-multiplicity", "Extension — multiplicity correction (Holm)",
			func(w io.Writer) error { return report.Multiplicity(w, d, scID) }},
		{"ext-trend-regressions", "Extension — FAR trend regressions",
			func(w io.Writer) error { return report.TrendRegressionsSection(w, d) }},
		{"ext-policy", "Extension — diversity-policy contrast",
			func(w io.Writer) error { return report.Policy(w, d) }},
		{"ext-trajectory", "Extension — reception over time",
			func(w io.Writer) error { return report.Trajectory(w, d) }},
		{"ext-distribution-gaps", "Extension — distribution gaps (Kolmogorov-Smirnov)",
			func(w io.Writer) error { return report.DistributionGaps(w, d) }},
		{"ext-subfields", "Extension — FAR by systems subfield",
			func(w io.Writer) error { return report.Subfields(w, d) }},
		{"ext-cohort-retention", "Extension — cohort retention across editions",
			func(w io.Writer) error { return report.CohortRetentionSection(w, d) }},
		{"ext-citation-flow", "Extension — gendered citation flow",
			func(w io.Writer) error { return report.CitationFlow(w, d, s.CitationGraph()) }},
	}
	if s.harvest != nil {
		harvest, baseline := s.harvest, s.baseline
		exhibits = append(exhibits,
			Exhibit{"harvest", "Harvest — resilient ingestion",
				func(w io.Writer) error { return report.Harvest(w, harvest) }},
			Exhibit{"coverage-sensitivity", "Sensitivity — degraded coverage",
				func(w io.Writer) error { return report.CoverageSensitivity(w, baseline, d, scID) }},
		)
	}
	return exhibits
}

// Exhibit returns the exhibit with the given stable ID, or ok=false when
// the study has no exhibit by that name (harvest exhibits exist only on
// harvested studies). The ID index is built once per applied delta — the
// serve layer resolves an exhibit per request, and a linear re-enumeration
// of Exhibits() (which rebuilds every closure) was measurable on that path.
// ApplyDelta invalidates the index, since its closures capture the
// pre-delta dataset.
func (s *Study) Exhibit(id string) (Exhibit, bool) {
	s.exhibitsMu.Lock()
	defer s.exhibitsMu.Unlock()
	if s.exhibitsByID == nil {
		exhibits := s.Exhibits()
		s.exhibitsByID = make(map[string]Exhibit, len(exhibits))
		for _, e := range exhibits {
			s.exhibitsByID[e.ID] = e
		}
	}
	e, ok := s.exhibitsByID[id]
	return e, ok
}
