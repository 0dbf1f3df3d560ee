package gender

import (
	"math/rand/v2"
	"testing"
)

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{FF: 40, FM: 5, FU: 5, MF: 2, MM: 90, MU: 8}
	if c.Total() != 150 {
		t.Errorf("Total = %d", c.Total())
	}
	// errorCoded = (5+2+5+8)/150.
	approxF(t, "ErrorCoded", c.ErrorCoded(), 20.0/150)
	// naCoded = 13/150.
	approxF(t, "NACoded", c.NACoded(), 13.0/150)
	// Empty matrix: all metrics zero, no NaN.
	var empty Confusion
	if empty.ErrorCoded() != 0 || empty.NACoded() != 0 {
		t.Error("empty confusion metrics must be 0")
	}
}

func approxF(t *testing.T, name string, got, want float64) {
	t.Helper()
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("%s = %g, want %g", name, got, want)
	}
}

// assignedError is the error rate over assigned cases only:
// (fm + mf) / (ff + fm + mf + mm).
func assignedError(c Confusion) float64 {
	return float64(c.FM+c.MF) / float64(c.FF+c.FM+c.MF+c.MM)
}

// labeledSample draws a labeled benchmark set from the bank: each name's
// bearers split by the bank's own PFemale, which makes the bank the ground
// truth the genderizer is evaluated against.
func labeledSample(n int, seed uint64) []LabeledName {
	rng := rand.New(rand.NewPCG(seed, seed))
	var items []LabeledName
	for i := 0; i < n; i++ {
		e := bank[rng.IntN(len(bank))]
		truth := Male
		if rng.Float64() < e.PFemale {
			truth = Female
		}
		items = append(items, LabeledName{Forename: e.Name, Truth: truth})
	}
	return items
}

func TestEvaluateBankGenderizer(t *testing.T) {
	items := labeledSample(5000, 11)
	c, err := Evaluate(BankGenderizer{}, items, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != 5000 {
		t.Fatalf("Total = %d", c.Total())
	}
	// The service should be decent overall but meaningfully imperfect.
	if e := assignedError(c); e <= 0 || e > 0.25 {
		t.Errorf("assigned error rate %g outside (0, 0.25]", e)
	}
	if na := c.NACoded(); na <= 0 || na > 0.35 {
		t.Errorf("NA rate %g outside (0, 0.35]", na)
	}
	// The cited asymmetry: women misclassified more than men.
	if c.FM <= c.MF {
		t.Errorf("women misread as men %d times, men as women %d, want more of the former", c.FM, c.MF)
	}
}

func TestEvaluateFloorMonotonicity(t *testing.T) {
	items := labeledSample(3000, 12)
	low, err := Evaluate(BankGenderizer{}, items, 0.60)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Evaluate(BankGenderizer{}, items, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	// Raising the floor trades coverage for accuracy.
	if !(high.NACoded() > low.NACoded()) {
		t.Errorf("NA rate should rise with the floor: %g vs %g", high.NACoded(), low.NACoded())
	}
	if !(assignedError(high) <= assignedError(low)) {
		t.Errorf("assigned error should not rise with the floor: %g vs %g",
			assignedError(high), assignedError(low))
	}
}

func TestEvaluateByOriginAsianGap(t *testing.T) {
	items := labeledSample(8000, 13)
	// Partition by name origin; names absent from the bank count as
	// Western.
	var westItems, chineseItems []LabeledName
	for _, it := range items {
		origin := OriginWestern
		if e, ok := LookupName(it.Forename); ok {
			origin = e.Origin
		}
		switch origin {
		case OriginWestern:
			westItems = append(westItems, it)
		case OriginChinese:
			chineseItems = append(chineseItems, it)
		}
	}
	if len(westItems) == 0 || len(chineseItems) == 0 {
		t.Fatalf("%d Western and %d Chinese names drawn", len(westItems), len(chineseItems))
	}
	west, err := Evaluate(BankGenderizer{}, westItems, 0)
	if err != nil {
		t.Fatal(err)
	}
	chinese, err := Evaluate(BankGenderizer{}, chineseItems, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's cited benchmark finding: Asian-origin names are much
	// harder — higher combined error (errors + non-assignments).
	if !(chinese.ErrorCoded() > west.ErrorCoded()+0.2) {
		t.Errorf("Chinese error %g not well above Western %g",
			chinese.ErrorCoded(), west.ErrorCoded())
	}
}

func TestEvaluateErrors(t *testing.T) {
	items := []LabeledName{{Forename: "mary", Truth: Female}}
	if _, err := Evaluate(nil, items, 0); err == nil {
		t.Error("nil genderizer accepted")
	}
	if _, err := Evaluate(BankGenderizer{}, items, 0.3); err == nil {
		t.Error("floor below 0.5 accepted")
	}
	if _, err := Evaluate(BankGenderizer{}, []LabeledName{{Forename: "x", Truth: Unknown}}, 0); err == nil {
		t.Error("unknown-truth item accepted")
	}
	// Empty set is fine: zero matrix.
	c, err := Evaluate(BankGenderizer{}, nil, 0)
	if err != nil || c.Total() != 0 {
		t.Errorf("empty set: %v, %v", c, err)
	}
}
