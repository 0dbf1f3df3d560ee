package core

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// SubfieldRow is one systems subfield's female author ratio in the
// extended corpus.
type SubfieldRow struct {
	Subfield string
	Venues   int
	FAR      stats.Proportion
}

// SubfieldAnalysis is the paper's future-work extension to "the larger set
// of 56 conferences ... from all subfields of computer systems": FAR per
// subfield, and the HPC-vs-rest contrast that quantifies the paper's
// motivating observation (HPC ~10% against 20-30% for CS overall).
type SubfieldAnalysis struct {
	Rows []SubfieldRow // sorted by FAR descending

	HPC       stats.Proportion
	Others    stats.Proportion
	HPCVsRest stats.ChiSquaredResult
}

// SubfieldComparison computes the per-subfield ratios over author slots.
// Conferences with an empty Subfield are grouped under "unclassified".
func SubfieldComparison(d *dataset.Dataset) (SubfieldAnalysis, error) {
	bySubfield := map[string][]dataset.ConfID{}
	venueCount := map[string]int{}
	for _, c := range d.Conferences {
		sf := c.Subfield
		if sf == "" {
			sf = "unclassified"
		}
		bySubfield[sf] = append(bySubfield[sf], c.ID)
		venueCount[sf]++
	}
	var res SubfieldAnalysis
	if len(bySubfield) < 2 {
		return res, fmt.Errorf("%w: need at least two subfields (have %d)", ErrNotApplicable, len(bySubfield))
	}
	for sf, confs := range bySubfield {
		gc := d.CountGenders(d.AuthorSlots(confs...))
		res.Rows = append(res.Rows, SubfieldRow{
			Subfield: sf,
			Venues:   venueCount[sf],
			FAR:      proportionOf(gc),
		})
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		ri, rj := res.Rows[i].FAR.Ratio(), res.Rows[j].FAR.Ratio()
		switch {
		case ri > rj:
			return true
		case rj > ri:
			return false
		}
		return res.Rows[i].Subfield < res.Rows[j].Subfield
	})
	subfields := make([]string, 0, len(bySubfield))
	for sf := range bySubfield {
		subfields = append(subfields, sf)
	}
	sort.Strings(subfields)
	var hpcConfs, otherConfs []dataset.ConfID
	for _, sf := range subfields {
		if sf == "HPC" {
			hpcConfs = append(hpcConfs, bySubfield[sf]...)
		} else {
			otherConfs = append(otherConfs, bySubfield[sf]...)
		}
	}
	if len(hpcConfs) == 0 {
		return res, fmt.Errorf("%w: no HPC subfield in corpus", ErrNotApplicable)
	}
	res.HPC = proportionOf(d.CountGenders(d.AuthorSlots(hpcConfs...)))
	res.Others = proportionOf(d.CountGenders(d.AuthorSlots(otherConfs...)))
	test, err := stats.TwoProportionChiSq(res.HPC.K, res.HPC.N, res.Others.K, res.Others.N)
	if err != nil {
		return res, notApplicable(err)
	}
	res.HPCVsRest = test
	return res, nil
}
