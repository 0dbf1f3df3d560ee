package repro

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/synth"
)

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
	var snap bytes.Buffer
	if err := fresh.WriteSnapshot(&snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
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
		loaded, err := OpenSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("OpenSnapshot: %v", err)
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

// TestSnapshotOpenBeatsRegeneration is the warm-boot perf floor from the
// snapshot design: loading a snapshot (corpus + frames) must be at least
// 10x faster than synthesizing the corpus and building the frames. The
// race detector's instrumentation distorts both sides unevenly, so the
// gate only runs on uninstrumented builds.
func TestSnapshotOpenBeatsRegeneration(t *testing.T) {
	if raceEnabled {
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
	if err := fresh.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	open := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := OpenSnapshot(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	regen := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := NewStudy(2021)
			if err != nil {
				b.Fatal(err)
			}
			s.Frames()
		}
	})
	openNs := float64(open.NsPerOp())
	regenNs := float64(regen.NsPerOp())
	t.Logf("snapshot open: %.2fms, regeneration: %.2fms (%.1fx)",
		openNs/1e6, regenNs/1e6, regenNs/openNs)
	if openNs*10 > regenNs {
		t.Errorf("snapshot open (%.2fms) is not 10x faster than regeneration (%.2fms)",
			openNs/1e6, regenNs/1e6)
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
	if err := s.WriteSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenSnapshot(bytes.NewReader(data)); err != nil {
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
		if err := s.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
