package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// PolicyComparison contrasts conferences with diversity initiatives (a
// diversity/inclusivity chair, as SC and ISC appointed) against those
// without — the question running through §3 and §3.4 of the paper: do the
// initiatives coincide with higher representation of women?
type PolicyComparison struct {
	WithPolicy    []dataset.ConfID
	WithoutPolicy []dataset.ConfID

	// Author population: the paper's §3.4 observation is that the two
	// diversity-chair venues actually have LOWER FAR (policies look
	// reactive, not yet effective).
	FARWith    stats.Proportion
	FARWithout stats.Proportion
	FARTest    stats.ChiSquaredResult

	// Invited roles (PC members + keynotes + panelists + session chairs):
	// here SC's explicit push shows — invited representation is higher at
	// policy venues.
	InvitedWith    stats.Proportion
	InvitedWithout stats.Proportion
	InvitedTest    stats.ChiSquaredResult
}

// DiversityPolicy computes the policy contrast over the corpus.
func DiversityPolicy(d *dataset.Dataset) (PolicyComparison, error) {
	var res PolicyComparison
	for _, c := range d.Conferences {
		if c.DiversityChair {
			res.WithPolicy = append(res.WithPolicy, c.ID)
		} else {
			res.WithoutPolicy = append(res.WithoutPolicy, c.ID)
		}
	}
	if len(res.WithPolicy) == 0 || len(res.WithoutPolicy) == 0 {
		return res, fmt.Errorf("%w: need conferences both with and without a diversity chair (have %d/%d)",
			ErrNotApplicable, len(res.WithPolicy), len(res.WithoutPolicy))
	}
	res.FARWith = proportionOf(d.CountGenders(d.AuthorSlots(res.WithPolicy...)))
	res.FARWithout = proportionOf(d.CountGenders(d.AuthorSlots(res.WithoutPolicy...)))
	test, err := stats.TwoProportionChiSq(res.FARWith.K, res.FARWith.N, res.FARWithout.K, res.FARWithout.N)
	if err != nil {
		return res, notApplicable(err)
	}
	res.FARTest = test

	invited := func(confs []dataset.ConfID) stats.Proportion {
		var ids []dataset.PersonID
		for _, role := range []dataset.Role{
			dataset.RolePCMember, dataset.RoleKeynote,
			dataset.RolePanelist, dataset.RoleSessionChair,
		} {
			ids = append(ids, d.RoleSlots(role, confs...)...)
		}
		return proportionOf(d.CountGenders(ids))
	}
	res.InvitedWith = invited(res.WithPolicy)
	res.InvitedWithout = invited(res.WithoutPolicy)
	test, err = stats.TwoProportionChiSq(res.InvitedWith.K, res.InvitedWith.N, res.InvitedWithout.K, res.InvitedWithout.N)
	if err != nil {
		return res, notApplicable(err)
	}
	res.InvitedTest = test
	return res, nil
}
