package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// RoleCell is one (conference, role) cell of Fig 1.
type RoleCell struct {
	Conf  dataset.ConfID
	Name  string
	Role  dataset.Role
	Ratio stats.Proportion
}

// RoleTable is the Fig 1 matrix: representation of women across conference
// roles, one cell per conference per role, plus an all-conference row per
// role.
type RoleTable struct {
	Cells   []RoleCell
	Overall map[dataset.Role]stats.Proportion

	// Positions are the per-conference first/last author panels.
	Positions   []PositionCell
	OverallLead stats.Proportion
	OverallLast stats.Proportion
}

// PositionCell is a per-conference author-position cell: the paper's Fig 1
// breaks authors into overall, first-author and last-author panels.
type PositionCell struct {
	Conf dataset.ConfID
	Name string
	Lead stats.Proportion
	Last stats.Proportion
}

// RoleRepresentation computes Fig 1. Author cells use author slots; other
// roles use their rosters. Repeats are kept throughout, matching the
// paper's "with repeats" convention. Positions carries the first/last
// author panels.
func RoleRepresentation(d *dataset.Dataset) RoleTable {
	t := RoleTable{Overall: make(map[dataset.Role]stats.Proportion)}
	for _, role := range dataset.Roles() {
		for _, c := range d.Conferences {
			var gc dataset.GenderCount
			if role == dataset.RoleAuthor {
				gc = d.CountGenders(d.AuthorSlots(c.ID))
			} else {
				gc = d.CountGenders(c.RoleHolders(role))
			}
			t.Cells = append(t.Cells, RoleCell{
				Conf: c.ID, Name: c.Name, Role: role, Ratio: proportionOf(gc),
			})
		}
		t.Overall[role] = proportionOf(d.CountGenders(d.RoleSlots(role)))
	}
	for _, c := range d.Conferences {
		t.Positions = append(t.Positions, PositionCell{
			Conf: c.ID, Name: c.Name,
			Lead: proportionOf(d.CountGenders(d.LeadAuthors(c.ID))),
			Last: proportionOf(d.CountGenders(d.LastAuthors(c.ID))),
		})
	}
	t.OverallLead = proportionOf(d.CountGenders(d.LeadAuthors()))
	t.OverallLast = proportionOf(d.CountGenders(d.LastAuthors()))
	return t
}

// Cell returns the (conf, role) cell, if present.
func (t RoleTable) Cell(conf dataset.ConfID, role dataset.Role) (RoleCell, bool) {
	for _, c := range t.Cells {
		if c.Conf == conf && c.Role == role {
			return c, true
		}
	}
	return RoleCell{}, false
}

// PCAnalysis is the §3.2 program-committee analysis.
type PCAnalysis struct {
	SlotsTotal  int              // PC-member slots with repeats (paper: 1220)
	UniqueTotal int              // unique PC members (paper: 908)
	Overall     stats.Proportion // women among PC slots (paper: 18.46%)
	SC          stats.Proportion // the largest and most-female PC (29.6%)
	ExcludingSC stats.Proportion // paper: 16.1%
	VsAuthors   stats.ChiSquaredResult

	// ChairsTotal and ZeroWomenChairConfs summarize PC chairs (paper: 36
	// chairs; four conferences appointed no women at all).
	ChairsTotal         int
	ChairWomen          int
	ZeroWomenChairConfs []dataset.ConfID
}

// ProgramCommittee computes §3.2. scID identifies the SC edition in the
// corpus ("" skips the SC breakdown for corpora without SC).
func ProgramCommittee(d *dataset.Dataset, scID dataset.ConfID) (PCAnalysis, error) {
	var res PCAnalysis
	slots := d.RoleSlots(dataset.RolePCMember)
	res.SlotsTotal = len(slots)
	res.UniqueTotal = len(d.UniqueRoleHolders(dataset.RolePCMember))
	res.Overall = proportionOf(d.CountGenders(slots))

	if scID != "" {
		if _, ok := d.Conference(scID); !ok {
			return res, fmt.Errorf("core: no conference %q in corpus", scID)
		}
		res.SC = proportionOf(d.CountGenders(d.RoleSlots(dataset.RolePCMember, scID)))
		var others []dataset.ConfID
		for _, c := range d.Conferences {
			if c.ID != scID {
				others = append(others, c.ID)
			}
		}
		res.ExcludingSC = proportionOf(d.CountGenders(d.RoleSlots(dataset.RolePCMember, others...)))
	}

	authors := proportionOf(d.CountGenders(d.AuthorSlots()))
	test, err := stats.TwoProportionChiSq(res.Overall.K, res.Overall.N, authors.K, authors.N)
	if err != nil {
		return res, notApplicable(err)
	}
	res.VsAuthors = test

	for _, c := range d.Conferences {
		gc := d.CountGenders(c.PCChairs)
		res.ChairsTotal += gc.Total()
		res.ChairWomen += gc.Women
		if gc.Total() > 0 && gc.Women == 0 {
			res.ZeroWomenChairConfs = append(res.ZeroWomenChairConfs, c.ID)
		}
	}
	return res, nil
}

// VisibleRoleStats summarizes one §3.3 visible role across conferences.
type VisibleRoleStats struct {
	Role          dataset.Role
	Total         int
	Women         int
	ZeroWomenConf []dataset.ConfID // conferences with a roster but no women
	BestConf      dataset.ConfID   // conference with the highest women ratio
	BestRatio     stats.Proportion

	// VsAuthorsExact compares the role's women share against the author
	// population with Fisher's exact test — the principled choice for
	// these tiny rosters, where the paper notes "the sample sizes are too
	// small for statistical analysis" and stops.
	VsAuthorsExact stats.FisherExactResult
}

// VisibleRoles computes §3.3 for keynotes, panelists and session chairs.
func VisibleRoles(d *dataset.Dataset) []VisibleRoleStats {
	authors := proportionOf(d.CountGenders(d.AuthorSlots()))
	var out []VisibleRoleStats
	for _, role := range []dataset.Role{dataset.RoleKeynote, dataset.RolePanelist, dataset.RoleSessionChair} {
		s := VisibleRoleStats{Role: role}
		best := -1.0
		var knownWomen, knownTotal int
		for _, c := range d.Conferences {
			gc := d.CountGenders(c.RoleHolders(role))
			s.Total += gc.Total()
			s.Women += gc.Women
			knownWomen += gc.Women
			knownTotal += gc.Known()
			if gc.Total() == 0 {
				continue
			}
			if gc.Women == 0 {
				s.ZeroWomenConf = append(s.ZeroWomenConf, c.ID)
			}
			if r := proportionOf(gc); r.N > 0 && r.Ratio() > best {
				best = r.Ratio()
				s.BestConf = c.ID
				s.BestRatio = r
			}
		}
		if knownTotal > 0 && authors.N > 0 {
			if fe, err := stats.FisherExact(
				knownWomen, knownTotal-knownWomen,
				authors.K, authors.N-authors.K); err == nil {
				s.VsAuthorsExact = fe
			}
		}
		out = append(out, s)
	}
	return out
}
