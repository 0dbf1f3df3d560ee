package query

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// sliceFrames cuts every frame of fs into n contiguous chunks aligned to
// partition boundaries and returns the n resulting FrameSets, so the tests
// can merge partials over views that each hold only part of every frame.
func sliceFrames(t *testing.T, fs *FrameSet, n int) []*FrameSet {
	t.Helper()
	shards := make([]*FrameSet, n)
	for i := range shards {
		var frames []*Frame
		for _, name := range fs.Names() {
			f, _ := fs.Frame(name)
			chunk := ((f.NumRows + n - 1) / n)
			chunk = ((chunk + PartitionRows - 1) / PartitionRows) * PartitionRows
			lo := i * chunk
			hi := lo + chunk
			if lo >= f.NumRows {
				// Shards past the end of a small frame are empty; the view
				// position is irrelevant, so keep it aligned at zero.
				lo, hi = 0, 0
			} else if hi > f.NumRows {
				hi = f.NumRows
			}
			sf, err := f.Slice(lo, hi)
			if err != nil {
				t.Fatalf("Slice(%d, %d) of %s: %v", lo, hi, name, err)
			}
			frames = append(frames, sf)
		}
		shards[i] = AssembleFrameSet(frames)
	}
	return shards
}

func runFederated(t *testing.T, fs *FrameSet, q *Query, n int) (*Result, error) {
	t.Helper()
	partials := make([]*Partial, 0, n)
	for _, shard := range sliceFrames(t, fs, n) {
		pt, err := ExecPartial(shard, q)
		if err != nil {
			t.Fatalf("ExecPartial: %v", err)
		}
		partials = append(partials, pt)
	}
	return MergeRun(fs, q, partials)
}

func TestMergeRunByteIdenticalToRun(t *testing.T) {
	queries := []*Query{
		{ // sparse group-by with totals
			Frame:   FrameSlots,
			GroupBy: []Key{{Col: "conference"}, {Col: "year"}},
			Aggs:    []Agg{{Op: "count", As: "n"}},
			Totals:  "ALL",
		},
		{ // welch compare over float moments
			Frame:   FramePapers,
			Where:   []Pred{{Col: "lead_known", Op: "eq", Value: true}},
			GroupBy: []Key{{Col: "lead_gender"}},
			Aggs:    []Agg{{Op: "count", As: "n"}},
			Compare: &Compare{Test: "welch", Col: "citations36", Groups: [][]any{{"female"}, {"male"}}},
		},
		{ // chi-squared compare over exact counts
			Frame:   FrameSlots,
			GroupBy: []Key{{Col: "role"}},
			Aggs: []Agg{
				{Op: "count", As: "women", Where: []Pred{{Col: "female", Op: "eq", Value: true}}},
				{Op: "count", As: "known", Where: []Pred{{Col: "known", Op: "eq", Value: true}}},
			},
			Compare: &Compare{Test: "chisq", Num: "women", Den: "known",
				Groups: [][]any{{"PC member"}, {"author"}}},
		},
		{ // ungrouped projection with sort and limit
			Frame:   FramePapers,
			Select:  []Key{{Col: "conference"}, {Col: "citations36"}},
			OrderBy: []Order{{Key: "citations36", Desc: true}},
			Limit:   25,
		},
		{ // float projection (float cells need scan tokens too)
			Frame:   FrameSlots,
			Select:  []Key{{Col: "person"}, {Col: "attendance"}},
			OrderBy: []Order{{Key: "attendance", Desc: true}, {Key: "person"}},
			Limit:   40,
		},
		{ // tie-heavy order: ties must keep merge order across slice boundaries
			Frame:   FrameSlots,
			Select:  []Key{{Col: "gender"}, {Col: "person"}, {Col: "conference"}},
			OrderBy: []Order{{Key: "gender", Desc: true}},
			Limit:   1500,
		},
	}
	for qi, q := range queries {
		want := mustRun(t, q)
		wantCSV, err := want.CSV()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4, 8} {
			res, err := runFederated(t, testFrames, q, n)
			if err != nil {
				t.Fatalf("query %d, %d shards: %v", qi, n, err)
			}
			got, err := res.CSV()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantCSV) {
				t.Errorf("query %d: %d-shard merge differs from Run:\n--- run\n%s\n--- merged\n%s", qi, n, wantCSV, got)
			}
			if want.Compare != nil {
				if res.Compare == nil || *res.Compare != *want.Compare {
					t.Errorf("query %d: %d-shard compare %+v, want %+v", qi, n, res.Compare, want.Compare)
				}
			}
		}
	}
}

func TestMergeRunGloballyEmptyIsErrEmpty(t *testing.T) {
	q := &Query{
		Frame:   FrameSlots,
		Where:   []Pred{{Col: "conference", Op: "eq", Value: "no-such-conference"}},
		GroupBy: []Key{{Col: "conference"}},
		Aggs:    []Agg{{Op: "count", As: "n"}},
	}
	// Per-shard partials must not error even though every shard is empty;
	// only the merged result is.
	if _, err := runFederated(t, testFrames, q, 4); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestMergeRunHashMismatch(t *testing.T) {
	qa := &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "conference"}}, Aggs: []Agg{{Op: "count", As: "n"}}}
	qb := &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}}, Aggs: []Agg{{Op: "count", As: "n"}}}
	pt, err := ExecPartial(testFrames, qa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeRun(testFrames, qb, []*Partial{pt}); !errors.Is(err, ErrPartialMismatch) {
		t.Fatalf("err = %v, want ErrPartialMismatch", err)
	}
}

func TestSliceValidation(t *testing.T) {
	f, _ := testFrames.Frame(FrameSlots)
	if _, err := f.Slice(-1, 0); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := f.Slice(0, f.NumRows+1); err == nil {
		t.Error("hi past NumRows accepted")
	}
	if _, err := f.Slice(63, 64); err == nil {
		t.Error("misaligned lo accepted")
	}
	empty, err := f.Slice(0, 0)
	if err != nil {
		t.Fatalf("empty slice: %v", err)
	}
	if empty.NumRows != 0 {
		t.Errorf("empty slice has %d rows", empty.NumRows)
	}
}

// TestMergedPartialsEqualPooledStatsOnEverySplit is the merge-safety
// property the engine's partition merge relies on, over the fixture
// corpus: for every two-way split of the corpus's papers — including the
// empty prefix and the single-row prefix — merged Welch-t moment partials,
// chi-squared count partials and mean partials agree with internal/stats
// computed over the pooled sample.
func TestMergedPartialsEqualPooledStatsOnEverySplit(t *testing.T) {
	var women, men []float64
	for _, p := range testData.Papers {
		lead, ok := testData.Person(p.Lead())
		if !ok {
			continue
		}
		switch lead.Gender.String() {
		case "female":
			women = append(women, float64(p.Citations36))
		case "male":
			men = append(men, float64(p.Citations36))
		}
	}
	pooledWelch, err := stats.WelchTTest(women, men)
	if err != nil {
		t.Fatal(err)
	}
	pooledMeanW := stats.MustMean(women)

	// Chi-squared pooled counts: women/known among PC members vs authors.
	pc := testData.CountGenders(testData.RoleSlots(dataset.RolePCMember))
	au := testData.CountGenders(testData.AuthorSlots())
	pooledChi, err := stats.TwoProportionChiSq(pc.Women, pc.Known(), au.Women, au.Known())
	if err != nil {
		t.Fatal(err)
	}

	split := func(xs []float64, cut int) stats.Moments {
		var m stats.Moments
		a, b := stats.MomentsOf(xs[:cut]), stats.MomentsOf(xs[cut:])
		m.Merge(a)
		m.Merge(b)
		return m
	}
	for cut := 0; cut <= len(women); cut++ {
		wm := split(women, cut)
		got, err := stats.WelchTTestFromMoments(wm, stats.MomentsOf(men))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !stats.AlmostEqual(got.T, pooledWelch.T) || !stats.AlmostEqual(got.P, pooledWelch.P) {
			t.Fatalf("cut %d: merged welch (t=%g, p=%g) != pooled (t=%g, p=%g)",
				cut, got.T, got.P, pooledWelch.T, pooledWelch.P)
		}
		mean, err := wm.Mean()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !stats.AlmostEqual(mean, pooledMeanW) {
			t.Fatalf("cut %d: merged mean %g != pooled %g", cut, mean, pooledMeanW)
		}
	}
	// Chi-squared partials are exact integer counts. Re-count the PC
	// contingency cell over every two-way split of the member slot list —
	// including empty and single-row parts — and require the merged
	// counts to reproduce the pooled test bit-for-bit.
	pcSlots := testData.RoleSlots(dataset.RolePCMember)
	for cut := 0; cut <= len(pcSlots); cut += 1 + len(pcSlots)/97 {
		a := testData.CountGenders(pcSlots[:cut])
		b := testData.CountGenders(pcSlots[cut:])
		k1, n1 := a.Women+b.Women, a.Known()+b.Known()
		if k1 != pc.Women || n1 != pc.Known() {
			t.Fatalf("cut %d: merged counts (%d/%d) != pooled (%d/%d)", cut, k1, n1, pc.Women, pc.Known())
		}
		got, err := stats.TwoProportionChiSq(k1, n1, au.Women, au.Known())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got.ChiSq != pooledChi.ChiSq || got.P != pooledChi.P {
			t.Fatalf("cut %d: merged chisq (%g, %g) != pooled (%g, %g)", cut, got.ChiSq, got.P, pooledChi.ChiSq, pooledChi.P)
		}
	}
}
