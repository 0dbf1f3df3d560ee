package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/delta"
	"repro/internal/perffloor"
	"repro/internal/query"
	"repro/internal/snap"
	"repro/internal/synth"
)

// openSnapshot opens a study from snapshot bytes the way OpenSnapshotFile
// opens one from a file.
func openSnapshot(data []byte) (*Study, error) {
	sn, err := snap.Read(data, snap.Full, nil)
	if err != nil {
		return nil, err
	}
	return studyFromSnapshot(sn), nil
}

// TestSnapshotRoundTripReport is the tentpole guarantee of the snapshot
// format: a study loaded from a snapshot renders the complete paper
// byte-identically to the study it was written from — including at
// different parallelism, since the deserialized FrameSet feeds the same
// partitioned query engine the fresh one does.
func TestSnapshotRoundTripReport(t *testing.T) {
	fresh, err := NewStudy(2021)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf, fresh.snapshot()); err != nil {
		t.Fatalf("snap.Write: %v", err)
	}

	render := func(s *Study, procs int) []byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		var b bytes.Buffer
		if err := s.WriteReport(&b); err != nil {
			t.Fatalf("WriteReport at GOMAXPROCS=%d: %v", procs, err)
		}
		return b.Bytes()
	}
	want := render(fresh, 1)

	for _, procs := range []int{1, 8} {
		loaded, err := openSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("openSnapshot: %v", err)
		}
		got := render(loaded, procs)
		if bytes.Equal(want, got) {
			continue
		}
		line := 1
		for i := range want {
			if i >= len(got) || want[i] != got[i] {
				break
			}
			if want[i] == '\n' {
				line++
			}
		}
		t.Errorf("snapshot-loaded report at GOMAXPROCS=%d differs from fresh (%d vs %d bytes); first divergence at line %d",
			procs, len(want), len(got), line)
	}
}

// TestSnapshotRoundTripQueries checks the ad-hoc query layer over the
// deserialized frames: every exhibit query must encode byte-identically.
func TestSnapshotRoundTripQueries(t *testing.T) {
	fresh, err := NewStudy(2021)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/default-2021.whpcsnap"
	if err := fresh.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	loaded, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v", err)
	}
	encode := func(s *Study, q *query.Query) []byte {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := res.Encode(q.Format)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, eq := range ExhibitQueries() {
		if !bytes.Equal(encode(fresh, eq.Query), encode(loaded, eq.Query)) {
			t.Errorf("exhibit query %q differs between fresh and snapshot-loaded study", eq.Name)
		}
	}
}

// Work budgets of one snapshot open (openSnapshot) of the default seed-2021 snapshot,
// checked by TestSnapshotOpenBeatsRegeneration beside its timing bound.
// Unlike the timing ratio they do not depend on what else shares the CPUs.
// Measured on linux/amd64 with Go 1.24 as 709 allocations and 2.67 MB
// per open of the snapshot bytes in memory; the budgets leave about 5%
// headroom on each.
const (
	snapshotOpenAllocs = 745
	snapshotOpenBytes  = 2_800_000
)

// TestSnapshotOpenBeatsRegeneration is the warm-boot perf floor from the
// snapshot design: loading a snapshot (corpus + frames) must be at least
// 10x faster than synthesizing the corpus and building the frames, in the
// medians of alternating rounds (perffloor.MedianResults). The race detector's
// instrumentation distorts both sides unevenly, so the gate only runs on
// uninstrumented builds.
func TestSnapshotOpenBeatsRegeneration(t *testing.T) {
	if perffloor.RaceEnabled {
		t.Skip("timing gate disabled under the race detector")
	}
	if testing.Short() {
		t.Skip("timing gate disabled with -short")
	}
	fresh, err := NewStudy(2021)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf, fresh.snapshot()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	open, regen := perffloor.MedianResults(t, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := openSnapshot(data); err != nil {
				b.Fatal(err)
			}
		}
	}, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := NewStudy(2021)
			if err != nil {
				b.Fatal(err)
			}
			s.Frames()
		}
	})
	openNs, regenNs := float64(open.NsPerOp()), float64(regen.NsPerOp())
	t.Logf("snapshot open: %.2fms, %d allocs, %d B; regeneration: %.2fms (%.1fx)",
		openNs/1e6, open.AllocsPerOp(), open.AllocedBytesPerOp(), regenNs/1e6, regenNs/openNs)
	if openNs*10 > regenNs {
		t.Errorf("snapshot open (%.2fms) is not 10x faster than regeneration (%.2fms)",
			openNs/1e6, regenNs/1e6)
	}
	if n := open.AllocsPerOp(); n > snapshotOpenAllocs {
		t.Errorf("snapshot open allocates %d times per open, budget %d", n, snapshotOpenAllocs)
	}
	if n := open.AllocedBytesPerOp(); n > snapshotOpenBytes {
		t.Errorf("snapshot open allocates %d B per open, budget %d B", n, snapshotOpenBytes)
	}
}

// BenchmarkSnapshotOpen measures the warm-boot path: parse, verify
// checksums, decode corpus and frames, validate.
func BenchmarkSnapshotOpen(b *testing.B) {
	s, err := NewStudy(2021)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf, s.snapshot()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := openSnapshot(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyRegeneration is the cold path BenchmarkSnapshotOpen
// replaces: corpus synthesis plus frame building.
func BenchmarkStudyRegeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := NewStudy(2021)
		if err != nil {
			b.Fatal(err)
		}
		s.Frames()
	}
}

// BenchmarkNewFrameSet measures flattening a synthesized corpus into its
// columnar frames, per corpus family; synthesis is set-up, untimed.
func BenchmarkNewFrameSet(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  synth.Config
	}{
		{"default", synth.Default2017(2021)},
		{"flagship", synth.FlagshipSeries(2021)},
		{"extended", synth.ExtendedSystems(2021)},
	} {
		b.Run(c.name, func(b *testing.B) {
			corpus, err := synth.Generate(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFrames = query.NewFrameSet(corpus.Data)
			}
		})
	}
}

// benchFrames keeps BenchmarkNewFrameSet's result live.
var benchFrames *query.FrameSet

// BenchmarkSnapshotWrite measures serialization (encode + checksums).
func BenchmarkSnapshotWrite(b *testing.B) {
	s, err := NewStudy(2021)
	if err != nil {
		b.Fatal(err)
	}
	s.Frames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := snap.Write(&buf, s.snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

// materializeBytes holds the files of whpcd's two ways to materialize the
// flagship study grown by SC'21: the base snapshot, the year delta, and
// the compacted snapshot whpcd writes after applying it (the base opened,
// the delta applied, the result saved).
var materializeBytes = sync.OnceValues(func() (map[string][]byte, error) {
	dir, err := os.MkdirTemp("", "whpc-materialize")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	base, err := NewStudyFromConfig(deltaFix.cfg)
	if err != nil {
		return nil, err
	}
	yd, baseCorpus, err := synth.GenerateYearDelta(deltaFix.cfg, deltaFix.spec)
	if err != nil {
		return nil, err
	}
	paths := map[string]string{
		"base":      filepath.Join(dir, snap.CorpusFileName("flagship", 2021)),
		"delta":     filepath.Join(dir, snap.DeltaFileName("flagship", 2021, 2021)),
		"compacted": filepath.Join(dir, "compacted"+snap.FileExt),
	}
	if err := base.SaveSnapshot(paths["base"]); err != nil {
		return nil, err
	}
	if err := delta.WriteFile(paths["delta"], yd, baseCorpus.Data); err != nil {
		return nil, err
	}
	grown, err := OpenSnapshotFile(paths["base"])
	if err != nil {
		return nil, err
	}
	if err := grown.ApplyDeltaFile(paths["delta"]); err != nil {
		return nil, err
	}
	if err := grown.SaveSnapshot(paths["compacted"]); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(paths))
	for name, path := range paths {
		if out[name], err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	return out, nil
})

// materializeFiles writes materializeBytes into a fresh directory and
// returns the path of each file.
func materializeFiles(tb testing.TB) map[string]string {
	tb.Helper()
	files, err := materializeBytes()
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	paths := make(map[string]string, len(files))
	for name, data := range files {
		paths[name] = filepath.Join(dir, name+snap.FileExt)
		if err := os.WriteFile(paths[name], data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return paths
}

// BenchmarkMaterializeDelta measures materializing the grown flagship
// study the long way: open the base snapshot, then apply the SC'21 delta
// file.
func BenchmarkMaterializeDelta(b *testing.B) {
	paths := materializeFiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := OpenSnapshotFile(paths["base"])
		if err != nil {
			b.Fatal(err)
		}
		if err := st.ApplyDeltaFile(paths["delta"]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterializeCompacted measures materializing the same study
// from its compacted snapshot: one open, no apply.
func BenchmarkMaterializeCompacted(b *testing.B) {
	paths := materializeFiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenSnapshotFile(paths["compacted"]); err != nil {
			b.Fatal(err)
		}
	}
}

// Work budgets of one open of the compacted flagship+SC'21 snapshot,
// checked by TestCompactedOpenBeatsDeltaApply beside its timing bound.
// Measured on linux/amd64 with Go 1.24 as 751 allocations and 4.20 MB
// per open; the budgets leave about 5% headroom on each.
const (
	compactedOpenAllocs = 789
	compactedOpenBytes  = 4_410_000
)

// TestCompactedOpenBeatsDeltaApply is the compaction perf floor: opening
// the compacted snapshot of a base and its delta must be at least 1.5x
// faster than opening the base and applying the delta (medians of
// alternating rounds, perffloor.MedianResults), or compacting buys nothing
// for the disk it takes. The median compacted open must also stay within
// its work budgets.
func TestCompactedOpenBeatsDeltaApply(t *testing.T) {
	if perffloor.RaceEnabled {
		t.Skip("timing gate disabled under the race detector")
	}
	if testing.Short() {
		t.Skip("timing gate disabled with -short")
	}
	compacted, apply := perffloor.MedianResults(t, BenchmarkMaterializeCompacted, BenchmarkMaterializeDelta)
	compactedNs, applyNs := float64(compacted.NsPerOp()), float64(apply.NsPerOp())
	t.Logf("base open + delta apply: %.2fms, compacted open: %.2fms, %d allocs, %d B (%.2fx)",
		applyNs/1e6, compactedNs/1e6, compacted.AllocsPerOp(), compacted.AllocedBytesPerOp(), applyNs/compactedNs)
	if compactedNs*1.5 > applyNs {
		t.Errorf("compacted open (%.2fms) is not 1.5x faster than base open + delta apply (%.2fms)",
			compactedNs/1e6, applyNs/1e6)
	}
	if n := compacted.AllocsPerOp(); n > compactedOpenAllocs {
		t.Errorf("compacted open allocates %d times per open, budget %d", n, compactedOpenAllocs)
	}
	if n := compacted.AllocedBytesPerOp(); n > compactedOpenBytes {
		t.Errorf("compacted open allocates %d B per open, budget %d B", n, compactedOpenBytes)
	}
}
