package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// TopicAnalysis is the §4.1 HPC-only subset comparison.
type TopicAnalysis struct {
	HPCPapers   int // manually HPC-tagged papers (paper: 178)
	TotalPapers int // all papers (paper: 518)

	HPCAuthors stats.Proportion // women among HPC-paper author slots (10.1%)
	AllAuthors stats.Proportion // women among all author slots (9.9%)
	AuthorTest stats.ChiSquaredResult

	HPCLead  stats.Proportion // women among HPC lead authors (11.05%)
	AllLead  stats.Proportion // women among all lead authors (10.86%)
	LeadTest stats.ChiSquaredResult
}

// HPCOnlySubset computes §4.1: does restricting to strictly-HPC papers
// change women's representation? (The paper finds it does not, materially.)
func HPCOnlySubset(d *dataset.Dataset) (TopicAnalysis, error) {
	var res TopicAnalysis
	res.TotalPapers = len(d.Papers)
	hpc := d.HPCPapers()
	res.HPCPapers = len(hpc)
	if res.HPCPapers == 0 {
		return res, fmt.Errorf("%w: no HPC-tagged papers in corpus", ErrNotApplicable)
	}

	var hpcSlots, hpcLeads []dataset.PersonID
	for _, p := range hpc {
		hpcSlots = append(hpcSlots, p.Authors...)
		if id := p.Lead(); id != "" {
			hpcLeads = append(hpcLeads, id)
		}
	}
	res.HPCAuthors = proportionOf(d.CountGenders(hpcSlots))
	res.AllAuthors = proportionOf(d.CountGenders(d.AuthorSlots()))
	res.HPCLead = proportionOf(d.CountGenders(hpcLeads))
	res.AllLead = proportionOf(d.CountGenders(d.LeadAuthors()))

	at, err := stats.TwoProportionChiSq(res.HPCAuthors.K, res.HPCAuthors.N, res.AllAuthors.K, res.AllAuthors.N)
	if err != nil {
		return res, notApplicable(err)
	}
	res.AuthorTest = at
	lt, err := stats.TwoProportionChiSq(res.HPCLead.K, res.HPCLead.N, res.AllLead.K, res.AllLead.N)
	if err != nil {
		return res, notApplicable(err)
	}
	res.LeadTest = lt
	return res, nil
}
