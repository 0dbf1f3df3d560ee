package synth

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/affil"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/scholar"
)

// Corpus bundles the generated dataset with the simulated bibliometric
// services backing it.
type Corpus struct {
	Data *dataset.Dataset
	GS   *scholar.Directory
	S2   *scholar.SemanticScholar
	Cfg  Config
}

// Generate builds a corpus from the calibration. The same Config (including
// Seed) always produces the identical corpus.
func Generate(cfg Config) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &gen{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		ds:  dataset.New(),
		gs:  scholar.NewDirectory(),
		s2:  scholar.NewSemanticScholar(),
		cascade: gender.Cascade{
			Manual:    gender.ManualInvestigator{ErrRate: cfg.ManualErrRate},
			Automated: gender.BankGenderizer{},
		},
		pool:   map[gender.Gender][]*dataset.Person{},
		pcPool: map[gender.Gender][]*dataset.Person{},
	}
	g.career = scholar.CareerModel{
		PubMu:     cfg.PubMu,
		PubSigma:  cfg.PubSigma,
		CiteMu:    cfg.CiteMu,
		CiteSigma: cfg.CiteSigma,
		PZero:     cfg.CitePZero,
	}
	g.buildCountrySamplers()
	for i := range cfg.Confs {
		if err := g.genConference(&cfg.Confs[i]); err != nil {
			return nil, err
		}
	}
	g.injectOutlier()
	if err := g.ds.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated corpus failed validation: %w", err)
	}
	return &Corpus{Data: g.ds, GS: g.gs, S2: g.s2, Cfg: cfg}, nil
}

// Validate checks the calibration for internal consistency.
func (c Config) Validate() error {
	if len(c.Confs) == 0 {
		return fmt.Errorf("synth: no conferences configured")
	}
	if len(c.Countries) == 0 {
		return fmt.Errorf("synth: no countries configured")
	}
	for _, cs := range c.Countries {
		if cs.Weight <= 0 {
			return fmt.Errorf("synth: country %s has nonpositive weight", cs.Code)
		}
		if cs.FAR < 0 || cs.FAR > 1 {
			return fmt.Errorf("synth: country %s FAR %g outside [0,1]", cs.Code, cs.FAR)
		}
	}
	for _, conf := range c.Confs {
		if conf.Papers <= 0 {
			return fmt.Errorf("synth: %s has no papers", conf.ID)
		}
		if conf.AuthorSlots < 2*conf.Papers {
			return fmt.Errorf("synth: %s needs at least %d author slots for %d papers, has %d",
				conf.ID, 2*conf.Papers, conf.Papers, conf.AuthorSlots)
		}
		if conf.AcceptanceRate <= 0 || conf.AcceptanceRate > 1 {
			return fmt.Errorf("synth: %s acceptance rate %g outside (0,1]", conf.ID, conf.AcceptanceRate)
		}
		for _, q := range []RoleQuota{conf.PCChairs, conf.PCMembers, conf.Keynotes, conf.Panelists, conf.SessionChairs} {
			if q.Women > q.Total || q.Women < 0 || q.Total < 0 {
				return fmt.Errorf("synth: %s role quota %d women of %d invalid", conf.ID, q.Women, q.Total)
			}
		}
		for _, far := range []float64{conf.FAR, conf.LeadFAR, conf.LastFAR, conf.HPCFrac} {
			if far < 0 || far > 1 {
				return fmt.Errorf("synth: %s ratio %g outside [0,1]", conf.ID, far)
			}
		}
	}
	probs := []float64{c.SectorEDU, c.SectorCOM, c.SectorGOV,
		c.ManualEvidenceRate, c.ConfidentNameRate, c.AuthorReuse, c.PCReuse,
		c.ManualErrRate}
	for _, p := range probs {
		if p < 0 || p > 1 {
			return fmt.Errorf("synth: probability %g outside [0,1]", p)
		}
	}
	if s := c.SectorEDU + c.SectorCOM + c.SectorGOV; math.Abs(s-1) > 1e-6 {
		return fmt.Errorf("synth: sector mix sums to %g, want 1", s)
	}
	return nil
}

type gen struct {
	cfg     Config
	rng     *rand.Rand
	ds      *dataset.Dataset
	gs      *scholar.Directory
	s2      *scholar.SemanticScholar
	cascade gender.Cascade
	career  scholar.CareerModel

	nextPerson int
	pool       map[gender.Gender][]*dataset.Person
	// pcPool holds researchers who have already served on some PC; PC
	// reuse draws from it so the same people recur across committees (the
	// paper's 908 unique vs 1220 PC slots).
	pcPool map[gender.Gender][]*dataset.Person

	// femaleLeadPapers remembers one female-led paper per conference for
	// outlier injection.
	femaleLeadPaper map[dataset.ConfID]*dataset.Paper

	// country samplers: per-conference cumulative tables by gender.
	samplers map[dataset.ConfID]*countrySampler
}

type countrySampler struct {
	codes []string
	cumF  []float64
	cumM  []float64
}

func (g *gen) buildCountrySamplers() {
	g.samplers = make(map[dataset.ConfID]*countrySampler, len(g.cfg.Confs))
	g.femaleLeadPaper = make(map[dataset.ConfID]*dataset.Paper)
	// Average FAR across the weighted mix, used to renormalize the
	// per-gender weights so the country marginal is preserved.
	var wSum, farSum float64
	for _, cs := range g.cfg.Countries {
		wSum += cs.Weight
		farSum += cs.Weight * cs.FAR
	}
	avgFAR := farSum / wSum
	for i := range g.cfg.Confs {
		conf := &g.cfg.Confs[i]
		s := &countrySampler{}
		var totF, totM float64
		for _, cs := range g.cfg.Countries {
			w := cs.Weight
			if cs.Code == conf.CountryCode && conf.HostBoost > 0 {
				w *= conf.HostBoost
			}
			wf := w * cs.FAR / avgFAR
			wm := w * (1 - cs.FAR) / (1 - avgFAR)
			totF += wf
			totM += wm
			s.codes = append(s.codes, cs.Code)
			s.cumF = append(s.cumF, totF)
			s.cumM = append(s.cumM, totM)
		}
		// Normalize cumulative tables to 1.
		for j := range s.cumF {
			s.cumF[j] /= totF
			s.cumM[j] /= totM
		}
		g.samplers[conf.ID] = s
	}
}

func (s *countrySampler) draw(rng *rand.Rand, truth gender.Gender) string {
	cum := s.cumM
	if truth == gender.Female {
		cum = s.cumF
	}
	u := rng.Float64()
	// Linear scan is fine: ~50 countries, generation is one-time.
	for i, c := range cum {
		if u <= c {
			return s.codes[i]
		}
	}
	return s.codes[len(s.codes)-1]
}

// newPerson mints a researcher with the given true gender for a
// conference, optionally with the PC experience boost.
func (g *gen) newPerson(truth gender.Gender, conf *ConfSpec, pcRole bool) *dataset.Person {
	g.nextPerson++
	id := dataset.PersonID(fmt.Sprintf("r%05d", g.nextPerson))
	country := g.samplers[conf.ID].draw(g.rng, truth)
	origin := originOf(country)

	// Web evidence decides the assignment path (§2 coverage targets).
	var ev gender.WebEvidence
	conclusive := g.rng.Float64() < g.cfg.ManualEvidenceRate
	if conclusive {
		if g.rng.Float64() < 0.6 {
			ev.HasPronounPage = true
		} else {
			ev.HasPhoto = true
		}
	}
	confident := conclusive && g.rng.Float64() < 0.8 ||
		!conclusive && g.rng.Float64() < g.cfg.ConfidentNameRate
	forename := drawForename(g.rng, origin, truth, confident)
	surname := drawSurname(g.rng, origin)
	var flip func(p float64) bool
	if g.cfg.ManualErrRate > 0 {
		flip = func(p float64) bool { return g.rng.Float64() < p }
	}
	asg := g.cascade.Assign(truth, ev, forename, country, flip)

	sector := g.drawSector(truth)
	affiliation, domain := makeAffiliation(g.rng, country, sector)
	email := makeEmail(forename, surname, domain)

	// Latent experience: role base + gender shift + noise.
	latent := g.rng.NormFloat64() * g.cfg.LatentSigma
	if pcRole {
		latent += g.cfg.PCBoost
	}
	if truth == gender.Male {
		latent += g.cfg.MaleShift
	} else {
		latent += g.cfg.FemaleShift
	}
	careerVec := g.career.DrawCareer(g.rng, latent)

	p := &dataset.Person{
		ID:           id,
		Name:         titleCase(forename) + " " + surname,
		Forename:     titleCase(forename),
		TrueGender:   truth,
		Gender:       asg.Gender,
		AssignMethod: asg.Method,
		Email:        email,
		Affiliation:  affiliation,
		CountryCode:  country,
		Sector:       sector,
	}
	// Google Scholar linkage, biased so unlinked researchers skew junior.
	pCover := g.cfg.GSBaseCover + g.cfg.GSCoverSlope*latent
	if pCover < 0.05 {
		pCover = 0.05
	} else if pCover > 0.98 {
		pCover = 0.98
	}
	if g.rng.Float64() < pCover {
		p.HasGSProfile = true
		p.GS = scholar.BuildProfile(careerVec)
		if err := g.gs.Register(string(id), p.GS); err != nil {
			panic(err) // BuildProfile output is valid by construction
		}
	}
	// Semantic Scholar has universal coverage.
	if err := g.s2.RegisterFromTruth(g.rng, string(id), len(careerVec), scholar.DefaultNoise); err != nil {
		panic(err)
	}
	if n, ok := g.s2.PastPublications(string(id)); ok {
		p.HasS2 = true
		p.S2Pubs = n
	}
	if err := g.ds.AddPerson(p); err != nil {
		panic(err) // IDs are sequential, duplicates impossible
	}
	g.pool[truth] = append(g.pool[truth], p)
	return p
}

// drawSector samples a work sector; women are slightly less likely to land
// in industry (Fig 8's COM dip among PC members).
func (g *gen) drawSector(truth gender.Gender) affil.Sector {
	com := g.cfg.SectorCOM
	if truth == gender.Female {
		com *= g.cfg.ComWomenPenalty
	}
	total := g.cfg.SectorEDU + com + g.cfg.SectorGOV
	u := g.rng.Float64() * total
	switch {
	case u < g.cfg.SectorEDU:
		return affil.EDU
	case u < g.cfg.SectorEDU+com:
		return affil.COM
	default:
		return affil.GOV
	}
}

// reuse returns an existing researcher of the given true gender not already
// in the exclude set, or nil if none can be found quickly. PC slots draw
// from the PC pool first so committee membership recurs across conferences.
func (g *gen) reuse(truth gender.Gender, pcRole bool, exclude map[dataset.PersonID]bool) *dataset.Person {
	pools := [][]*dataset.Person{g.pool[truth]}
	if pcRole {
		pools = [][]*dataset.Person{g.pcPool[truth], g.pool[truth]}
	}
	for _, pool := range pools {
		if len(pool) == 0 {
			continue
		}
		for try := 0; try < 6; try++ {
			p := pool[g.rng.IntN(len(pool))]
			if !exclude[p.ID] {
				return p
			}
		}
	}
	return nil
}

// pickPerson fills one slot: reuse with probability reuseP, else mint.
func (g *gen) pickPerson(truth gender.Gender, conf *ConfSpec, pcRole bool, reuseP float64, exclude map[dataset.PersonID]bool) *dataset.Person {
	if g.rng.Float64() < reuseP {
		if p := g.reuse(truth, pcRole, exclude); p != nil {
			return p
		}
	}
	return g.newPerson(truth, conf, pcRole)
}

// genderSlots builds a shuffled boolean slate with `women` true entries out
// of `total` — quota sampling, so tiny rosters land exactly on target. In
// Bernoulli mode (ablation) each slot is an independent draw at the same
// rate, which lets small rosters drift off target.
func (g *gen) genderSlots(women, total int) []bool {
	slots := make([]bool, total)
	if g.cfg.BernoulliGenders {
		p := float64(women) / float64(maxInt(total, 1))
		for i := range slots {
			slots[i] = g.rng.Float64() < p
		}
		return slots
	}
	for i := 0; i < women && i < total; i++ {
		slots[i] = true
	}
	g.rng.Shuffle(total, func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return slots
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func boolGender(female bool) gender.Gender {
	if female {
		return gender.Female
	}
	return gender.Male
}

func (g *gen) genConference(conf *ConfSpec) error {
	subfield := conf.Subfield
	if subfield == "" {
		subfield = "HPC"
	}
	c := &dataset.Conference{
		ID:              conf.ID,
		Name:            conf.Name,
		Year:            conf.Year,
		Date:            conf.Date,
		Subfield:        subfield,
		CountryCode:     conf.CountryCode,
		Submitted:       int(math.Round(float64(conf.Papers) / conf.AcceptanceRate)),
		AcceptanceRate:  conf.AcceptanceRate,
		DoubleBlind:     conf.DoubleBlind,
		DiversityChair:  conf.DiversityChair,
		CodeOfConduct:   conf.CodeOfConduct,
		Childcare:       conf.Childcare,
		WomenAttendance: conf.WomenAttendance,
	}
	if err := g.ds.AddConference(c); err != nil {
		return err
	}

	// --- Papers and authors (quota-sampled genders per position). ---
	sizes := g.paperSizes(conf.Papers, conf.AuthorSlots)
	leadF := int(math.Round(conf.LeadFAR * float64(conf.Papers)))
	lastF := int(math.Round(conf.LastFAR * float64(conf.Papers)))
	middleSlots := conf.AuthorSlots - 2*conf.Papers
	middleF := int(math.Round(conf.FAR*float64(conf.AuthorSlots))) - leadF - lastF
	if middleF < 0 {
		middleF = 0
	}
	if middleF > middleSlots {
		middleF = middleSlots
	}
	leads := g.genderSlots(leadF, conf.Papers)
	lasts := g.genderSlots(lastF, conf.Papers)
	middles := g.genderSlots(middleF, middleSlots)
	mi := 0

	mCites := scholar.CitationModel{Mu: g.cfg.CiteLeadMMu, Sigma: g.cfg.CiteLeadMSigma, PZero: g.cfg.CitePZeroPaper}
	fCites := scholar.CitationModel{Mu: g.cfg.CiteLeadFMu, Sigma: g.cfg.CiteLeadFSigma, PZero: g.cfg.CitePZeroPaper}

	for i := 0; i < conf.Papers; i++ {
		onPaper := make(map[dataset.PersonID]bool, sizes[i])
		authors := make([]dataset.PersonID, 0, sizes[i])
		add := func(truth gender.Gender) {
			p := g.pickPerson(truth, conf, false, g.cfg.AuthorReuse, onPaper)
			onPaper[p.ID] = true
			authors = append(authors, p.ID)
		}
		add(boolGender(leads[i]))
		for k := 0; k < sizes[i]-2; k++ {
			add(boolGender(middles[mi]))
			mi++
		}
		add(boolGender(lasts[i]))

		var cites int
		if leads[i] {
			cites = fCites.Draw(g.rng)
		} else {
			cites = mCites.Draw(g.rng)
		}
		paper := &dataset.Paper{
			ID:          dataset.PaperID(fmt.Sprintf("%s-p%03d", conf.ID, i+1)),
			Conf:        conf.ID,
			Title:       fmt.Sprintf("%s Paper %d", conf.Name, i+1),
			Authors:     authors,
			HPCTopic:    g.rng.Float64() < conf.HPCFrac,
			Citations36: cites,
		}
		if err := g.ds.AddPaper(paper); err != nil {
			return err
		}
		if leads[i] && g.femaleLeadPaper[conf.ID] == nil {
			g.femaleLeadPaper[conf.ID] = paper
		}
	}

	// --- Role rosters. ---
	// The rosters are written after AddConference. That is safe for the
	// dataset's memoized populations because nothing reads them until the
	// generator returns, and every later AddConference/AddPaper drops the
	// memo anyway.
	// Role quotas are about *perceived* gender (the observable the paper
	// tallies: "four conferences appointed no women at all"), so a person
	// whose assignment cascade misfired must not silently flip a
	// zero-women roster. Retry until perceived matches the slot.
	fill := func(q RoleQuota, reuseP float64) []dataset.PersonID {
		used := make(map[dataset.PersonID]bool, q.Total)
		out := make([]dataset.PersonID, 0, q.Total)
		for _, female := range g.genderSlots(q.Women, q.Total) {
			want := boolGender(female)
			var p *dataset.Person
			for try := 0; try < 12; try++ {
				p = g.pickPerson(want, conf, true, reuseP, used)
				if p.Gender == want || !p.Gender.Known() {
					break
				}
				// Perceived gender contradicts the slot: leave the person
				// in the general pool and draw again.
			}
			used[p.ID] = true
			out = append(out, p.ID)
		}
		return out
	}
	c.PCMembers = fill(conf.PCMembers, g.cfg.PCReuse)
	// Everyone on this PC becomes eligible for reuse on later PCs.
	for _, id := range c.PCMembers {
		if p, ok := g.ds.Person(id); ok {
			g.pcPool[p.TrueGender] = append(g.pcPool[p.TrueGender], p)
		}
	}
	c.PCChairs = fill(conf.PCChairs, 0.6)
	c.Keynotes = fill(conf.Keynotes, 0.6)
	c.Panelists = fill(conf.Panelists, 0.5)
	c.SessionChairs = fill(conf.SessionChairs, 0.5)
	return nil
}

// paperSizes partitions authorSlots into papers author-list sizes, each at
// least 2 and at most 14.
func (g *gen) paperSizes(papers, authorSlots int) []int {
	sizes := make([]int, papers)
	for i := range sizes {
		sizes[i] = 2
	}
	extra := authorSlots - 2*papers
	for extra > 0 {
		i := g.rng.IntN(papers)
		if sizes[i] < 14 {
			sizes[i]++
			extra--
		}
	}
	return sizes
}

// injectOutlier plants the paper's >450-citation, non-HPC, female-led
// outlier (the ProvChain analog of §4.2) into the configured conference.
func (g *gen) injectOutlier() {
	if g.cfg.OutlierCitations <= 0 || g.cfg.OutlierConf == "" {
		return
	}
	paper := g.femaleLeadPaper[g.cfg.OutlierConf]
	if paper == nil {
		// No female-led paper materialized at that conference; fall back
		// to any conference that has one (deterministic order).
		for _, conf := range g.cfg.Confs {
			if p := g.femaleLeadPaper[conf.ID]; p != nil {
				paper = p
				break
			}
		}
	}
	if paper == nil {
		return
	}
	paper.Citations36 = g.cfg.OutlierCitations
	paper.HPCTopic = false
	paper.Title = "Blockchain-Based Data Provenance in the Cloud"
}
