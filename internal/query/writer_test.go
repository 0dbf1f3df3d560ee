package query_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/perffloor"
	"repro/internal/query"
	"repro/internal/snap"
)

// encodeFrames returns the snapshot codec's canonical encoding of fs,
// carried by the smallest corpus a snapshot accepts.
func encodeFrames(t *testing.T, fs *query.FrameSet) []byte {
	t.Helper()
	d := dataset.New()
	if err := d.AddConference(&dataset.Conference{ID: "C17", Name: "C", Year: 2017, AcceptanceRate: 0.2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf, snap.Snapshot{Corpus: d, Frames: fs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriterSplitIndependent writes n rows of one column in one session
// and, for every k, k rows then n−k rows in a second session — both on
// the frame the first session left and on its snapshot round trip, whose
// bitmaps carry no bits past the row count — and requires every result to
// encode to the same bytes. The null patterns put the first null before,
// on and after the 64-row word and 1024-row partition boundaries, where
// the validity bitmap is first materialized and then grown.
func TestWriterSplitIndependent(t *testing.T) {
	const n = 1090
	firstNullAt := func(r int) func(int) bool {
		return func(i int) bool { return i == r || (i > r && (i-r)%5 == 0) }
	}
	patterns := []struct {
		name string
		null func(int) bool
	}{
		{"no nulls", func(int) bool { return false }},
		{"all nulls", func(int) bool { return true }},
	}
	for _, r := range []int{0, 63, 64, 65, 1023, 1024} {
		patterns = append(patterns, struct {
			name string
			null func(int) bool
		}{fmt.Sprintf("first null at %d", r), firstNullAt(r)})
	}
	// The race detector finds nothing in this single-goroutine test and
	// slows it tenfold, so instrumented and -short runs try every 7th split.
	step := 1
	if testing.Short() || perffloor.RaceEnabled {
		step = 7
	}
	for _, typ := range []query.ColType{query.TInt, query.TFloat, query.TStr, query.TBool} {
		t.Run(typ.String(), func(t *testing.T) {
			for _, pat := range patterns {
				whole := query.NewSplitFrameSet(typ)
				query.WriteSplitRows(whole, n, pat.null)
				want := encodeFrames(t, whole)
				for k := 0; k <= n; k += step {
					split := query.NewSplitFrameSet(typ)
					query.WriteSplitRows(split, k, pat.null)
					head := encodeFrames(t, split)
					query.WriteSplitRows(split, n-k, pat.null)
					if got := encodeFrames(t, split); !bytes.Equal(got, want) {
						t.Fatalf("%s: writing %d then %d rows differs from writing %d at once", pat.name, k, n-k, n)
					}

					sn, err := snap.Read(head, snap.Full, nil)
					if err != nil {
						t.Fatal(err)
					}
					query.WriteSplitRows(sn.Frames, n-k, pat.null)
					if got := encodeFrames(t, sn.Frames); !bytes.Equal(got, want) {
						t.Fatalf("%s: writing %d rows, a snapshot round trip, then %d rows differs from writing %d at once", pat.name, k, n-k, n)
					}
				}
			}
		})
	}
}
