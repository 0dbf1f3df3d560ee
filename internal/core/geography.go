package core

import (
	"sort"

	"repro/internal/countries"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/stats"
)

// CountryRow is one row of Table 2 / Fig 7: women's representation among a
// country's researchers.
type CountryRow struct {
	Code  string
	Name  string
	Ratio stats.Proportion // women / known-gender researchers
	Total int              // researchers incl. unknown gender
}

// TopCountries computes Table 2: the top `limit` countries by researcher
// count (unique authors and PC members) with their female ratios. A limit
// of 0 returns all countries.
func TopCountries(d *dataset.Dataset, limit int) []CountryRow {
	rows := countryRows(d, d.UniqueAuthorsAndPC())
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		return rows[i].Code < rows[j].Code
	})
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// CountriesWithMinAuthors computes Fig 7: every country with at least
// minAuthors unique authors, sorted by descending female ratio.
func CountriesWithMinAuthors(d *dataset.Dataset, minAuthors int) []CountryRow {
	rows := countryRows(d, d.UniqueAuthors())
	var out []CountryRow
	for _, r := range rows {
		if r.Total >= minAuthors {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := out[i].Ratio.Ratio(), out[j].Ratio.Ratio()
		switch {
		case ri > rj:
			return true
		case rj > ri:
			return false
		}
		return out[i].Code < out[j].Code
	})
	return out
}

func countryRows(d *dataset.Dataset, ids []dataset.PersonID) []CountryRow {
	type agg struct {
		women, known, total int
	}
	byCode := map[string]*agg{}
	for _, id := range ids {
		p, ok := d.Person(id)
		if !ok || p.CountryCode == "" {
			continue
		}
		a := byCode[p.CountryCode]
		if a == nil {
			a = &agg{}
			byCode[p.CountryCode] = a
		}
		a.total++
		if p.Gender.Known() {
			a.known++
			if p.Gender == gender.Female {
				a.women++
			}
		}
	}
	rows := make([]CountryRow, 0, len(byCode))
	for code, a := range byCode {
		name := code
		if c, ok := countries.ByCode(code); ok {
			name = c.Name
		}
		rows = append(rows, CountryRow{
			Code:  code,
			Name:  name,
			Ratio: stats.Proportion{K: a.women, N: a.known},
			Total: a.total,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Code < rows[j].Code })
	return rows
}

// RegionRow is one row of Table 3: representation of women by UN subregion
// for authors and PC members separately.
type RegionRow struct {
	Region  string
	Authors stats.Proportion
	PC      stats.Proportion
}

// RegionRoleTable computes Table 3, sorted by total authors descending.
// Researchers whose country cannot be mapped to a subregion are dropped,
// matching the paper's "identified authors" framing.
func RegionRoleTable(d *dataset.Dataset) []RegionRow {
	authorTally := regionTally(d, d.UniqueAuthors())
	pcTally := regionTally(d, d.UniqueRoleHolders(dataset.RolePCMember))
	regions := map[string]bool{}
	for r := range authorTally {
		regions[r] = true
	}
	for r := range pcTally {
		regions[r] = true
	}
	var rows []RegionRow
	for region := range regions {
		rows = append(rows, RegionRow{
			Region:  region,
			Authors: authorTally[region],
			PC:      pcTally[region],
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Authors.N != rows[j].Authors.N {
			return rows[i].Authors.N > rows[j].Authors.N
		}
		return rows[i].Region < rows[j].Region
	})
	return rows
}

func regionTally(d *dataset.Dataset, ids []dataset.PersonID) map[string]stats.Proportion {
	out := map[string]stats.Proportion{}
	for _, id := range ids {
		p, ok := d.Person(id)
		if !ok || !p.Gender.Known() {
			continue
		}
		region := countries.SubregionOf(p.CountryCode)
		if region == "" {
			continue
		}
		prop := out[region]
		prop.N++
		if p.Gender == gender.Female {
			prop.K++
		}
		out[region] = prop
	}
	return out
}

// GeographyConcentration summarizes §5.2's headline concentration numbers:
// the US and Western Europe shares of authors and PC members.
type GeographyConcentration struct {
	AuthorsIdentified int
	USAuthors         float64 // paper: 50.2% of identified authors
	WEAuthors         float64 // paper: 14.33%
	PCIdentified      int
	USPC              float64 // paper: 52.57%
	WEPC              float64 // paper: 16.36%
}

// Concentration computes the §5.2 shares over unique authors/PC members
// with a mappable country.
func Concentration(d *dataset.Dataset) GeographyConcentration {
	share := func(ids []dataset.PersonID) (n int, us, we float64) {
		var usN, weN int
		for _, id := range ids {
			p, ok := d.Person(id)
			if !ok || p.CountryCode == "" {
				continue
			}
			n++
			switch {
			case p.CountryCode == "US":
				usN++
			case countries.SubregionOf(p.CountryCode) == countries.WesternEurope:
				weN++
			}
		}
		if n > 0 {
			us = float64(usN) / float64(n)
			we = float64(weN) / float64(n)
		}
		return
	}
	var g GeographyConcentration
	g.AuthorsIdentified, g.USAuthors, g.WEAuthors = share(d.UniqueAuthors())
	g.PCIdentified, g.USPC, g.WEPC = share(d.UniqueRoleHolders(dataset.RolePCMember))
	return g
}
