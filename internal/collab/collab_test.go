package collab

import (
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/synth"
)

var corpus = func() *synth.Corpus {
	c, err := synth.Generate(synth.Default2017(1))
	if err != nil {
		panic(err)
	}
	return c
}()

// pairCorpus builds a deterministic micro-corpus:
//
//	paper a: f1, m1, m2   paper b: f1, f2   paper c: m3, m4   paper d: m1, m2
//
// so the graph is {f1-m1, f1-m2, m1-m2(w2), f1-f2, m3-m4} with one isolated
// pair component {m3, m4}.
func pairCorpus(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.New()
	people := map[string]gender.Gender{
		"f1": gender.Female, "f2": gender.Female,
		"m1": gender.Male, "m2": gender.Male, "m3": gender.Male, "m4": gender.Male,
		"u1": gender.Unknown,
	}
	for id, g := range people {
		if err := d.AddPerson(&dataset.Person{
			ID: dataset.PersonID(id), Name: id, TrueGender: g, Gender: g,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddConference(&dataset.Conference{
		ID: "C1", Name: "C", Year: 2017, AcceptanceRate: 0.5,
		Date: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
	}); err != nil {
		t.Fatal(err)
	}
	papers := []*dataset.Paper{
		{ID: "a", Conf: "C1", Title: "a", Authors: []dataset.PersonID{"f1", "m1", "m2"}},
		{ID: "b", Conf: "C1", Title: "b", Authors: []dataset.PersonID{"f1", "f2"}},
		{ID: "c", Conf: "C1", Title: "c", Authors: []dataset.PersonID{"m3", "m4"}},
		{ID: "d", Conf: "C1", Title: "d", Authors: []dataset.PersonID{"m1", "m2"}},
		{ID: "e", Conf: "C1", Title: "e", Authors: []dataset.PersonID{"u1", "m3"}},
	}
	for _, p := range papers {
		if err := d.AddPaper(p); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestBuildGraphStructure(t *testing.T) {
	d := pairCorpus(t)
	g := BuildGraph(d)
	if g.Nodes() != 7 {
		t.Errorf("nodes = %d, want 7", g.Nodes())
	}
	// Edges: f1-m1, f1-m2, m1-m2, f1-f2, m3-m4, u1-m3.
	if g.Edges() != 6 {
		t.Errorf("edges = %d, want 6", g.Edges())
	}
	if g.Degree("f1") != 3 {
		t.Errorf("deg(f1) = %d, want 3", g.Degree("f1"))
	}
	if g.Weight("m1", "m2") != 2 {
		t.Errorf("weight(m1,m2) = %d, want 2 (two joint papers)", g.Weight("m1", "m2"))
	}
	if g.Weight("f1", "f2") != 1 || g.Weight("f1", "m3") != 0 {
		t.Error("pair weights wrong")
	}
	if g.Papers("f1") != 2 || g.Papers("m3") != 2 {
		t.Errorf("paper counts: f1=%d m3=%d", g.Papers("f1"), g.Papers("m3"))
	}
	nbrs := g.Neighbors("m1")
	if len(nbrs) != 2 || nbrs[0] != "f1" || nbrs[1] != "m2" {
		t.Errorf("neighbors(m1) = %v", nbrs)
	}
	if g.Degree("ghost") != 0 || len(g.Neighbors("ghost")) != 0 {
		t.Error("absent node should have empty neighborhood")
	}
}

func TestComponents(t *testing.T) {
	d := pairCorpus(t)
	g := BuildGraph(d)
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("%d components, want 2", len(comps))
	}
	if len(comps[0]) != 4 { // f1, f2, m1, m2
		t.Errorf("giant component size = %d, want 4", len(comps[0]))
	}
	if len(comps[1]) != 3 { // m3, m4, u1
		t.Errorf("second component size = %d, want 3", len(comps[1]))
	}
	frac := g.GiantComponentFraction()
	if math.Abs(frac-4.0/7) > 1e-12 {
		t.Errorf("giant fraction = %g", frac)
	}
	empty := BuildGraph(dataset.New())
	if empty.GiantComponentFraction() != 0 {
		t.Error("empty graph giant fraction should be 0")
	}
}

func TestConferenceScopedGraph(t *testing.T) {
	d := corpus.Data
	full := BuildGraph(d)
	sc := BuildGraph(d, "SC17")
	if sc.Nodes() >= full.Nodes() {
		t.Errorf("SC-only graph (%d) not smaller than full graph (%d)", sc.Nodes(), full.Nodes())
	}
	if sc.Nodes() == 0 {
		t.Error("SC graph empty")
	}
}

func TestMixingAnalysisMicro(t *testing.T) {
	d := pairCorpus(t)
	g := BuildGraph(d)
	m, err := MixingAnalysis(g, d)
	if err != nil {
		t.Fatal(err)
	}
	// Gendered edges: f1-m1 (FM), f1-m2 (FM), m1-m2 (MM), f1-f2 (FF),
	// m3-m4 (MM). The u1-m3 edge is excluded.
	if m.FF != 1 || m.FM != 2 || m.MM != 2 {
		t.Errorf("mixing = FF %d FM %d MM %d", m.FF, m.FM, m.MM)
	}
	if m.TotalEdges() != 5 {
		t.Errorf("total = %d", m.TotalEdges())
	}
	if m.ObservedFMShare != 0.4 {
		t.Errorf("observed FM share = %g", m.ObservedFMShare)
	}
	if m.Assortativity < -1 || m.Assortativity > 1 {
		t.Errorf("assortativity = %g out of range", m.Assortativity)
	}
}

func TestMixingAnalysisErrors(t *testing.T) {
	d := dataset.New()
	if err := d.AddPerson(&dataset.Person{ID: "u", Name: "u"}); err != nil {
		t.Fatal(err)
	}
	g := BuildGraph(d)
	if _, err := MixingAnalysis(g, d); err == nil {
		t.Error("graph without gendered edges accepted")
	}
}

func TestMixingAnalysisFullCorpus(t *testing.T) {
	d := corpus.Data
	g := BuildGraph(d)
	m, err := MixingAnalysis(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalEdges() < 2000 {
		t.Errorf("only %d gendered edges", m.TotalEdges())
	}
	// The generator assigns genders to slots independently of the team
	// composition, so mixing should be near-random: |r| small and the
	// observed mixed share near expectation.
	if math.Abs(m.Assortativity) > 0.12 {
		t.Errorf("assortativity %g suspiciously strong for a random-mixing corpus", m.Assortativity)
	}
	if math.Abs(m.ObservedFMShare-m.ExpectedFMShare) > 0.05 {
		t.Errorf("FM share %g far from expected %g", m.ObservedFMShare, m.ExpectedFMShare)
	}
}

func TestDegreeByGenderFullCorpus(t *testing.T) {
	d := corpus.Data
	g := BuildGraph(d)
	r, err := DegreeByGender(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if r.FemaleN < 100 || r.MaleN < 1000 {
		t.Errorf("population sizes: %d female, %d male", r.FemaleN, r.MaleN)
	}
	if r.FemaleMean <= 0 || r.MaleMean <= 0 {
		t.Error("degenerate degree means")
	}
	if r.MannWhitney.P < 0 || r.MannWhitney.P > 1 {
		t.Errorf("Mann-Whitney p = %g", r.MannWhitney.P)
	}
	// Degrees reflect team size (~4 coauthors/paper): medians in a sane band.
	if r.MaleMedian < 1 || r.MaleMedian > 15 {
		t.Errorf("male median degree %g implausible", r.MaleMedian)
	}
}

func TestDegreeByGenderErrors(t *testing.T) {
	d := dataset.New()
	g := BuildGraph(d)
	if _, err := DegreeByGender(g, d); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestTeamSizeByLeadGender(t *testing.T) {
	d := corpus.Data
	r, err := TeamSizeByLeadGender(d)
	if err != nil {
		t.Fatal(err)
	}
	// Generator partitions slots independent of lead gender, so team sizes
	// should be similar (within one author).
	if math.Abs(r.FemaleLedMean-r.MaleLedMean) > 1.0 {
		t.Errorf("team sizes diverge: F %g vs M %g", r.FemaleLedMean, r.MaleLedMean)
	}
	if r.FemaleLedMean < 2 || r.MaleLedMean < 2 {
		t.Error("mean team size below the generator's minimum of 2")
	}
	if r.Welch.P < 0 || r.Welch.P > 1 {
		t.Errorf("Welch p = %g", r.Welch.P)
	}
}

func TestTeamSizeErrors(t *testing.T) {
	d := dataset.New()
	if _, err := TeamSizeByLeadGender(d); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestSoloRate(t *testing.T) {
	fem, mal := SoloRate(corpus.Data)
	// The generator's minimum team size is 2, so solo rates are zero —
	// the function must still report the right denominators.
	if fem.K != 0 || mal.K != 0 {
		t.Errorf("solo papers exist: F %v M %v", fem, mal)
	}
	if fem.N == 0 || mal.N == 0 {
		t.Error("no gendered leads tallied")
	}
	// Micro-corpus with a real solo paper.
	d := dataset.New()
	if err := d.AddPerson(&dataset.Person{ID: "f", Name: "f", Gender: gender.Female, TrueGender: gender.Female}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddConference(&dataset.Conference{ID: "C", Name: "C", Year: 2017, AcceptanceRate: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPaper(&dataset.Paper{ID: "p", Conf: "C", Title: "p", Authors: []dataset.PersonID{"f"}}); err != nil {
		t.Fatal(err)
	}
	fem, _ = SoloRate(d)
	if fem.K != 1 || fem.N != 1 {
		t.Errorf("solo tally = %v", fem)
	}
}

func TestNoIsolatedAuthor(t *testing.T) {
	g := BuildGraph(corpus.Data)
	ids := g.IDs()
	if len(ids) != g.Nodes() {
		t.Fatalf("%d IDs vs %d nodes", len(ids), g.Nodes())
	}
	for _, id := range ids {
		if g.Degree(id) < 1 {
			t.Errorf("isolated author %s in coauthorship graph (min team size is 2)", id)
		}
	}
}
