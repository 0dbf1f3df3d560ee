package query

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

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

// TestFloatScanFollowsPartitionMergeTree pins the float addition tree of a
// grouped scan: each 1024-row partition is summed on its own, and the
// partials are merged in partition order. The frame has a float column of
// i/3 values over three partitions plus a tail, with every seventh row
// null, and a bool key that splits odd rows from even ones. On this frame a
// one-pass sum rounds differently from the merge tree. So a scan that
// accumulated straight into one set would fail the exact checks of sum,
// mean and a Welch compare against the replayed tree.
func TestFloatScanFollowsPartitionMergeTree(t *testing.T) {
	const n = 3*partitionRows + 557
	null := func(i int) bool { return i%7 == 0 }
	fs := NewSplitFrameSet(TFloat)
	WriteSplitRows(fs, n, null)
	f, _ := fs.Frame("split")
	odd := &Column{Name: "odd", Type: TBool, Bools: NewBitmap(n)}
	for i := 1; i < n; i += 2 {
		odd.Bools.Set(i)
	}
	fs.frames[0] = newFrame("split", n, []*Column{f.cols[0], odd})

	// Replay the tree: per parity, one Moments per partition, merged into
	// the total in partition order. onePass adds every row in row order.
	var tree, part, onePass [2]stats.Moments
	for i := 0; i < n; i++ {
		if i%partitionRows == 0 {
			for k := range tree {
				tree[k].Merge(part[k])
			}
			part = [2]stats.Moments{}
		}
		if !null(i) {
			part[i%2].Add(float64(i) / 3)
			onePass[i%2].Add(float64(i) / 3)
		}
	}
	for k := range tree {
		tree[k].Merge(part[k])
	}
	if tree == onePass {
		t.Fatal("fixture does not tell the merge tree from a one-pass scan")
	}
	// The ungrouped sum's tree: one partial over both parities per
	// partition, merged in order.
	var sum, count float64
	for lo := 0; lo < n; lo += partitionRows {
		var p float64
		for i := lo; i < min(lo+partitionRows, n); i++ {
			if !null(i) {
				p += float64(i) / 3
				count++
			}
		}
		sum += p
	}
	var whole float64
	for i := 0; i < n; i++ {
		if !null(i) {
			whole += float64(i) / 3
		}
	}
	if sum == whole {
		t.Fatal("fixture does not tell the merge tree's sum from a one-pass sum")
	}

	run := func(q *Query) *Result {
		t.Helper()
		res, err := Run(fs, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(&Query{Frame: "split", Aggs: []Agg{{Op: "sum", Col: "c", As: "s"}, {Op: "mean", Col: "c", As: "m"}}})
	if got := res.Rows[0]; got[0].F != sum || got[1].F != sum/count {
		t.Errorf("sum, mean = %v, %v; merge tree gives %v, %v", got[0].F, got[1].F, sum, sum/count)
	}

	res = run(&Query{
		Frame:   "split",
		GroupBy: []Key{{Col: "odd"}},
		Aggs:    []Agg{{Op: "sum", Col: "c", As: "s"}, {Op: "mean", Col: "c", As: "m"}},
		Compare: &Compare{Test: "welch", Col: "c", Groups: [][]any{{false}, {true}}},
	})
	if len(res.Rows) != 2 {
		t.Fatalf("%d groups, want odd=false and odd=true", len(res.Rows))
	}
	for k, row := range res.Rows {
		if mean, _ := tree[k].Mean(); row[1].F != tree[k].Sum || row[2].F != mean {
			t.Errorf("odd=%v: sum, mean = %v, %v; merge tree gives %v, %v", row[0].B, row[1].F, row[2].F, tree[k].Sum, mean)
		}
	}
	want, err := stats.WelchTTestFromMoments(tree[0], tree[1])
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Compare; c.Stat != want.T || c.DF != want.DF || c.P != want.P {
		t.Errorf("welch = (%v, %v, %v); merge tree gives (%v, %v, %v)", c.Stat, c.DF, c.P, want.T, want.DF, want.P)
	}
}
