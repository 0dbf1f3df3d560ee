package core

import (
	"fmt"

	"repro/internal/affil"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/stats"
)

// SectorCell is one (sector, role) cell of Fig 8.
type SectorCell struct {
	Sector affil.Sector
	Role   dataset.Role
	Ratio  stats.Proportion
}

// SectorAnalysis is the §5.3 work-sector analysis.
type SectorAnalysis struct {
	// Mix is the overall sector distribution over unique researchers
	// (paper: COM 8.6%, EDU 72.8%, GOV 18.6%).
	MixEDU, MixCOM, MixGOV float64

	Cells []SectorCell

	// The paper's two tests: sector x gender among PC members
	// (chi2 = 0.522, p = 0.77) and among authors (chi2 = 1.629, p = 0.443),
	// both nonsignificant.
	PCTest     stats.ChiSquaredResult
	AuthorTest stats.ChiSquaredResult
}

// SectorRepresentation computes Fig 8 and the §5.3 chi-squared tests over
// unique authors and unique PC members with a known sector.
func SectorRepresentation(d *dataset.Dataset) (SectorAnalysis, error) {
	var res SectorAnalysis

	// Overall mix over the §5 demographic population.
	var edu, com, gov, n int
	for _, id := range d.UniqueAuthorsAndPC() {
		p, ok := d.Person(id)
		if !ok {
			continue
		}
		switch p.Sector {
		case affil.EDU:
			edu++
		case affil.COM:
			com++
		case affil.GOV:
			gov++
		default:
			continue
		}
		n++
	}
	if n == 0 {
		return res, fmt.Errorf("%w: no researchers with a known sector", ErrNotApplicable)
	}
	res.MixEDU = float64(edu) / float64(n)
	res.MixCOM = float64(com) / float64(n)
	res.MixGOV = float64(gov) / float64(n)

	sectors := []affil.Sector{affil.COM, affil.EDU, affil.GOV}
	populations := []struct {
		role dataset.Role
		ids  []dataset.PersonID
	}{
		{dataset.RoleAuthor, d.UniqueAuthors()},
		{dataset.RolePCMember, d.UniqueRoleHolders(dataset.RolePCMember)},
	}
	// Per-population 2x3 tables: rows = gender, columns = sector.
	tables := map[dataset.Role][][]float64{}
	for _, pop := range populations {
		table := [][]float64{make([]float64, len(sectors)), make([]float64, len(sectors))}
		for si, sector := range sectors {
			var prop stats.Proportion
			for _, id := range pop.ids {
				p, ok := d.Person(id)
				if !ok || p.Sector != sector || !p.Gender.Known() {
					continue
				}
				prop.N++
				if p.Gender == gender.Female {
					prop.K++
					table[0][si]++
				} else {
					table[1][si]++
				}
			}
			res.Cells = append(res.Cells, SectorCell{Sector: sector, Role: pop.role, Ratio: prop})
		}
		tables[pop.role] = table
	}
	pcTest, err := stats.ChiSquaredIndependence(tables[dataset.RolePCMember])
	if err != nil {
		return res, fmt.Errorf("core: PC sector test: %w", notApplicable(err))
	}
	res.PCTest = pcTest
	auTest, err := stats.ChiSquaredIndependence(tables[dataset.RoleAuthor])
	if err != nil {
		return res, fmt.Errorf("core: author sector test: %w", notApplicable(err))
	}
	res.AuthorTest = auTest
	return res, nil
}

// Cell returns the (sector, role) cell, if present.
func (s SectorAnalysis) Cell(sector affil.Sector, role dataset.Role) (SectorCell, bool) {
	for _, c := range s.Cells {
		if c.Sector == sector && c.Role == role {
			return c, true
		}
	}
	return SectorCell{}, false
}
