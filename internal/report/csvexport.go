package report

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"sync"

	"repro/internal/cite"
	"repro/internal/core"
	"repro/internal/dataset"
)

// CSVExport is one machine-readable exhibit family: a stable name (the
// file stem and the whpcd /v1/csv/{name} route segment), a human-readable
// title, and the row producer. Rows returns a header row followed by data
// rows, values unrounded.
type CSVExport struct {
	Name  string
	Title string
	Rows  func() ([][]string, error)
}

// CSVExports enumerates the exportable exhibit families for a corpus in a
// fixed order. The row builders are the reference the engine's exhibit
// queries (repro.Study.ExhibitCSV, which whpc -csv and whpcd serve) are
// checked against.
func CSVExports(d *dataset.Dataset) []CSVExport {
	// Both citation families analyze the same synthesized graph; build it
	// at most once, and only if one of them actually renders.
	var (
		citeOnce sync.Once
		citeG    *cite.Graph
	)
	citeGraph := func() *cite.Graph {
		citeOnce.Do(func() { citeG = cite.Synthesize(d) })
		return citeG
	}
	return []CSVExport{
		{"far_per_conference", "Female author ratio per conference", func() ([][]string, error) { return farRows(d) }},
		{"role_representation", "Representation of women by conference role", func() ([][]string, error) { return roleRows(d) }},
		{"countries", "Representation of women by country", func() ([][]string, error) { return countryRows(d) }},
		{"regions", "Authors and PC members by region", func() ([][]string, error) { return regionRows(d) }},
		{"sectors", "Representation of women by work sector", func() ([][]string, error) { return sectorRows(d) }},
		{"experience_bands", "Experience-band stratification", func() ([][]string, error) { return bandRows(d) }},
		{"citations", "Per-paper citation reception", func() ([][]string, error) { return citationRows(d) }},
		{"trend", "Flagship FAR time series", func() ([][]string, error) { return trendRows(d) }},
		{"retention", "Cohort retention of role-holders across editions", func() ([][]string, error) { return retentionRows(d) }},
		{"cite_flow", "Citation flow by citing-team gender composition", func() ([][]string, error) { return citeFlowRows(d, citeGraph()) }},
		{"cite_gap", "Citation flow per conference-year", func() ([][]string, error) { return citeGapRows(d, citeGraph()) }},
	}
}

// CSVExportByName returns the export family with the given name, or
// ok=false for an unknown name.
func CSVExportByName(d *dataset.Dataset, name string) (CSVExport, bool) {
	for _, e := range CSVExports(d) {
		if e.Name == name {
			return e, true
		}
	}
	return CSVExport{}, false
}

// CSVExportNames lists the family names of CSVExports, in its order. No
// rows are built, so the names need no corpus.
func CSVExportNames() []string {
	exps := CSVExports(nil)
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	return names
}

// CSV renders the family's rows as CSV bytes, in the encoding of
// query.Result.CSV.
func (e CSVExport) CSV() ([]byte, error) {
	rows, err := e.Rows()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// farRows is one row per conference series: the per-edition FARs of
// editions sharing a name (SC 2016 … SC 2020, or a base edition and its
// year delta) are summed into the series row, in first-appearance order,
// so no label repeats and a later edition never relabels existing rows.
// The per-edition split is the trend family.
func farRows(d *dataset.Dataset) ([][]string, error) {
	far := core.AuthorFAR(d)
	var series []*core.ConfFAR
	byName := make(map[string]*core.ConfFAR, len(far.PerConf))
	for _, r := range far.PerConf {
		s := byName[r.Name]
		if s == nil {
			s = &core.ConfFAR{Name: r.Name}
			byName[r.Name] = s
			series = append(series, s)
		}
		s.Ratio.K += r.Ratio.K
		s.Ratio.N += r.Ratio.N
		s.Unknown += r.Unknown
	}
	rows := [][]string{{"conference", "women", "known", "far", "unknown"}}
	for _, r := range series {
		rows = append(rows, []string{
			r.Name, strconv.Itoa(r.Ratio.K), strconv.Itoa(r.Ratio.N),
			ftoa(r.Ratio.Ratio()), strconv.Itoa(r.Unknown),
		})
	}
	rows = append(rows, []string{"ALL", strconv.Itoa(far.Overall.K),
		strconv.Itoa(far.Overall.N), ftoa(far.Overall.Ratio()), strconv.Itoa(far.Unknown)})
	return rows, nil
}

func roleRows(d *dataset.Dataset) ([][]string, error) {
	tab := core.RoleRepresentation(d)
	rows := [][]string{{"conference", "role", "women", "known", "ratio"}}
	for _, c := range tab.Cells {
		rows = append(rows, []string{
			string(c.Conf), c.Role.String(),
			strconv.Itoa(c.Ratio.K), strconv.Itoa(c.Ratio.N), ftoa(c.Ratio.Ratio()),
		})
	}
	return rows, nil
}

func countryRows(d *dataset.Dataset) ([][]string, error) {
	rows := [][]string{{"country", "women", "known", "ratio", "total"}}
	for _, r := range core.TopCountries(d, 0) {
		rows = append(rows, []string{
			r.Code, strconv.Itoa(r.Ratio.K), strconv.Itoa(r.Ratio.N),
			ftoa(r.Ratio.Ratio()), strconv.Itoa(r.Total),
		})
	}
	return rows, nil
}

func regionRows(d *dataset.Dataset) ([][]string, error) {
	rows := [][]string{{"region", "author_women", "author_total", "pc_women", "pc_total"}}
	for _, r := range core.RegionRoleTable(d) {
		rows = append(rows, []string{
			r.Region,
			strconv.Itoa(r.Authors.K), strconv.Itoa(r.Authors.N),
			strconv.Itoa(r.PC.K), strconv.Itoa(r.PC.N),
		})
	}
	return rows, nil
}

func sectorRows(d *dataset.Dataset) ([][]string, error) {
	r, err := core.SectorRepresentation(d)
	if err != nil {
		return nil, err
	}
	rows := [][]string{{"sector", "role", "women", "known", "ratio"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Sector.String(), c.Role.String(),
			strconv.Itoa(c.Ratio.K), strconv.Itoa(c.Ratio.N), ftoa(c.Ratio.Ratio()),
		})
	}
	return rows, nil
}

func bandRows(d *dataset.Dataset) ([][]string, error) {
	r, err := core.ExperienceBands(d)
	if err != nil {
		return nil, err
	}
	rows := [][]string{{"population", "gender", "novice", "mid_career", "experienced", "total"}}
	for _, grp := range []struct {
		name  string
		cells []core.BandCell
	}{{"all", r.All}, {"authors", r.Authors}} {
		for _, c := range grp.cells {
			rows = append(rows, []string{
				grp.name, c.Gender.String(),
				strconv.Itoa(c.Counts[0]), strconv.Itoa(c.Counts[1]),
				strconv.Itoa(c.Counts[2]), strconv.Itoa(c.Total),
			})
		}
	}
	return rows, nil
}

func citationRows(d *dataset.Dataset) ([][]string, error) {
	rows := [][]string{{"paper", "conference", "lead_gender", "citations36", "hpc_topic"}}
	for _, p := range d.Papers {
		lead, ok := d.Person(p.Lead())
		g := "unknown"
		if ok {
			g = lead.Gender.String()
		}
		rows = append(rows, []string{
			string(p.ID), string(p.Conf), g,
			strconv.Itoa(p.Citations36), strconv.FormatBool(p.HPCTopic),
		})
	}
	return rows, nil
}

func trendRows(d *dataset.Dataset) ([][]string, error) {
	rows := [][]string{{"series", "year", "women", "known", "far", "attendance"}}
	for _, p := range core.FlagshipTrend(d) {
		rows = append(rows, []string{
			p.Series, strconv.Itoa(p.Year),
			strconv.Itoa(p.FAR.K), strconv.Itoa(p.FAR.N),
			ftoa(p.FAR.Ratio()), ftoa(p.Attendance),
		})
	}
	return rows, nil
}

func retentionRows(d *dataset.Dataset) ([][]string, error) {
	rows := [][]string{{"series", "year", "holders", "women", "observed", "returned", "women_returned", "rate"}}
	for _, p := range core.CohortRetention(d) {
		rows = append(rows, []string{
			p.Series, strconv.Itoa(p.Year),
			strconv.Itoa(p.Holders), strconv.Itoa(p.Women),
			strconv.Itoa(p.Observed), strconv.Itoa(p.Returned),
			strconv.Itoa(p.WomenReturned), ftoa(p.Rate()),
		})
	}
	return rows, nil
}
