package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/synth"
)

// compactedFiles lists the key's compacted snapshots in dir.
func compactedFiles(t *testing.T, dir, corpus string, seed uint64) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, snap.CompactFilePattern(corpus, seed)))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// savedSnapshotSum is the SHA-256 of SaveSnapshot of the study
// synthesized from cfg in one go.
func savedSnapshotSum(t *testing.T, cfg synth.Config) [32]byte {
	t.Helper()
	st, err := repro.NewStudyFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "resynth.whpcsnap")
	if err := st.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	return fileSum(t, path)
}

func fileSum(t *testing.T, path string) [32]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

// dirServer is a server over a snapshot dir with its own metrics.
func dirServer(t *testing.T, dir string, mut func(*Config)) *Server {
	t.Helper()
	return newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Metrics = obs.NewRegistry()
		if mut != nil {
			mut(c)
		}
	})
}

// materialize builds (or finds) the study for a pristine key.
func materialize(t *testing.T, s *Server, corpus string, seed uint64) *repro.Study {
	t.Helper()
	st, err := s.studies.Get(context.Background(), StudyKey{Seed: seed, Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// wantCounters checks counter values on a server's /metrics.
func wantCounters(t *testing.T, s *Server, want map[string]string) {
	t.Helper()
	for name, v := range want {
		if got := metricValue(t, s, name); got != v {
			t.Errorf("%s = %s, want %s", name, got, v)
		}
	}
}

const (
	compactWrittenMetric = `whpcd_snapshot_compactions_total{outcome="written"}`
	compactFailedMetric  = `whpcd_snapshot_compactions_total{outcome="failed"}`
)

// TestCompactedSnapshotMatchesResynthesis: a base that absorbed its year
// delta is written back as one compacted snapshot, SHA-256-identical to
// SaveSnapshot of the grown corpus synthesized in one go, and a second
// server over the same dir opens it with no delta apply, at the revision
// the base plus its delta had, serving identical bytes. No fallback or
// quarantine happens on the way.
func TestCompactedSnapshotMatchesResynthesis(t *testing.T) {
	for _, tc := range []struct {
		corpus string
		cfg    synth.Config
		year   int
	}{
		{CorpusFlagship, synth.FlagshipSeries(2021), 2021},
		{CorpusFlagship, synth.FlagshipSeries(2022), 2021},
		{CorpusFlagship, synth.FlagshipSeries(7), 2021},
		{CorpusDefault, synth.Default2017(2021), 2018},
	} {
		cfg := tc.cfg
		t.Run(fmt.Sprintf("%s/%d/SC%d", tc.corpus, cfg.Seed, tc.year), func(t *testing.T) {
			dir := t.TempDir()
			writeBase(t, dir, tc.corpus, cfg)
			grown := writeDelta(t, dir, tc.corpus, cfg, scSpec(t, cfg, tc.year))
			target := "/v1/trend?corpus=" + tc.corpus + "&seed=" + strconv.FormatUint(cfg.Seed, 10)

			first := dirServer(t, dir, nil)
			firstBody := post(t, first, target, "").Body.Bytes()
			files := compactedFiles(t, dir, tc.corpus, cfg.Seed)
			if len(files) != 1 {
				t.Fatalf("compacted files after the first materialization: %v, want one", files)
			}
			if fileSum(t, files[0]) != savedSnapshotSum(t, grown) {
				t.Error("compacted snapshot differs from SaveSnapshot of the resynthesized grown study")
			}
			wantCounters(t, first, map[string]string{
				"whpcd_delta_applies_total":            "1",
				"whpcd_snapshot_compacted_loads_total": "0",
				compactWrittenMetric:                   "1",
				compactFailedMetric:                    "0",
				"whpcd_snapshot_fallbacks_total":       "0",
				"whpcd_snapshot_quarantines_total":     "0",
			})

			second := dirServer(t, dir, nil)
			if st := materialize(t, second, tc.corpus, cfg.Seed); st.Revision() != 1 {
				t.Errorf("compacted study at revision %d, want 1 (one delta absorbed)", st.Revision())
			}
			if !bytes.Equal(post(t, second, target, "").Body.Bytes(), firstBody) {
				t.Error("/v1/trend from the compacted snapshot differs from base + delta")
			}
			wantCounters(t, second, map[string]string{
				"whpcd_delta_applies_total":            "0",
				"whpcd_snapshot_compacted_loads_total": "1",
				"whpcd_snapshot_loads_total":           "1",
				compactWrittenMetric:                   "0",
				"whpcd_snapshot_fallbacks_total":       "0",
				"whpcd_snapshot_quarantines_total":     "0",
			})
		})
	}
}

// compactedDir is the flagship SC'21 fixture after one server has
// compacted it: the dir, the compacted file, and the grown trend bytes.
func compactedDir(t *testing.T) (dir, compacted string, trend []byte) {
	t.Helper()
	dir = writeDeltaDir(t)
	s := dirServer(t, dir, nil)
	trend = post(t, s, "/v1/trend?corpus=flagship", "").Body.Bytes()
	files := compactedFiles(t, dir, CorpusFlagship, testSeed)
	if len(files) != 1 {
		t.Fatalf("compacted files: %v, want one", files)
	}
	return dir, files[0], trend
}

// TestCompactedSnapshotCorruptFallsBack: a corrupt or torn compacted file
// is retried once, quarantined, and the study falls back to base + delta
// with identical bytes, which writes the compacted file again.
func TestCompactedSnapshotCorruptFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"bit flip", func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }},
		{"torn", func(b []byte) []byte { return b[:len(b)/2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, compacted, trend := compactedDir(t)
			want := fileSum(t, compacted)
			data, err := os.ReadFile(compacted)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(compacted, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			var errLog strings.Builder
			// An empty schedule fires nothing but counts every read.
			reads := chaos.NewScheduled(&chaos.Schedule{})
			s := dirServer(t, dir, func(c *Config) {
				c.ErrorLog = &errLog
				c.Chaos = reads
			})
			if got := post(t, s, "/v1/trend?corpus=flagship", ""); !bytes.Equal(got.Body.Bytes(), trend) {
				t.Errorf("fallback /v1/trend differs from base + delta: %d %s", got.Code, got.Body.String())
			}
			if got := reads.Hits(chaos.PointSnapRead); got != 4 {
				t.Errorf("snap.read hits = %d, want 4 (compacted twice, then base and delta)", got)
			}
			wantCounters(t, s, map[string]string{
				"whpcd_snapshot_quarantines_total":     "1",
				"whpcd_snapshot_compacted_loads_total": "0",
				"whpcd_delta_applies_total":            "1",
				"whpcd_snapshot_fallbacks_total":       "0",
				compactWrittenMetric:                   "1",
			})
			if _, err := os.Stat(compacted + QuarantineSuffix); err != nil {
				t.Errorf("corrupt compacted file not renamed aside: %v", err)
			}
			if !strings.Contains(errLog.String(), compacted) {
				t.Errorf("error log does not name the quarantined file: %q", errLog.String())
			}
			if fileSum(t, compacted) != want {
				t.Error("rewritten compacted file differs from the original")
			}
		})
	}

	t.Run("torn read retried", func(t *testing.T) {
		dir, _, trend := compactedDir(t)
		inj := chaos.NewScheduled(&chaos.Schedule{Triggers: []chaos.Trigger{
			{Point: chaos.PointSnapRead, Hit: 1, Fault: chaos.Fault{Kind: chaos.KindTorn, TornBytes: 512}},
		}})
		s := dirServer(t, dir, func(c *Config) { c.Chaos = inj })
		if got := post(t, s, "/v1/trend?corpus=flagship", ""); !bytes.Equal(got.Body.Bytes(), trend) {
			t.Errorf("/v1/trend after a retried torn read differs: %d", got.Code)
		}
		if got := inj.Hits(chaos.PointSnapRead); got != 2 {
			t.Errorf("snap.read hits = %d, want 2 (original + retry)", got)
		}
		wantCounters(t, s, map[string]string{
			"whpcd_snapshot_compacted_loads_total": "1",
			"whpcd_snapshot_quarantines_total":     "0",
			"whpcd_delta_applies_total":            "0",
		})
	})
}

// TestCompactionWriteFailure: a compacted snapshot that cannot be written
// is logged and counted, the response is unchanged, and the next
// materialization of the key tries again.
func TestCompactionWriteFailure(t *testing.T) {
	grown := exhibitQueryCSV(t, grownFlagship(t), "trend")

	t.Run("injected", func(t *testing.T) {
		dir := writeDeltaDir(t)
		inj := chaos.NewScheduled(&chaos.Schedule{Triggers: []chaos.Trigger{
			{Point: chaos.PointCompact, Hit: 1, Fault: chaos.Fault{Kind: chaos.KindError}},
		}})
		var errLog strings.Builder
		s := dirServer(t, dir, func(c *Config) {
			c.Chaos = inj
			c.ErrorLog = &errLog
		})
		if got := post(t, s, "/v1/trend?corpus=flagship", ""); !bytes.Equal(got.Body.Bytes(), grown) {
			t.Errorf("/v1/trend after a failed compaction differs from the grown corpus: %d", got.Code)
		}
		wantCounters(t, s, map[string]string{compactFailedMetric: "1", compactWrittenMetric: "0"})
		if files := compactedFiles(t, dir, CorpusFlagship, testSeed); len(files) != 0 {
			t.Errorf("failed compaction left %v", files)
		}
		if !strings.Contains(errLog.String(), "compacting study") {
			t.Errorf("error log has no compaction failure: %q", errLog.String())
		}

		s.studies = NewStudyRegistry(1, s.buildStudy, nil, nil, nil)
		materialize(t, s, CorpusFlagship, testSeed)
		wantCounters(t, s, map[string]string{compactFailedMetric: "1", compactWrittenMetric: "1"})
	})

	t.Run("read-only dir", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("file permissions do not bind root")
		}
		dir := writeDeltaDir(t)
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = os.Chmod(dir, 0o755) })
		s := dirServer(t, dir, nil)
		if got := post(t, s, "/v1/trend?corpus=flagship", ""); !bytes.Equal(got.Body.Bytes(), grown) {
			t.Errorf("/v1/trend over a read-only dir differs from the grown corpus: %d", got.Code)
		}
		wantCounters(t, s, map[string]string{compactFailedMetric: "1", compactWrittenMetric: "0"})
	})
}

// TestCompactionStaleLineage: a replaced or added delta changes the
// lineage, so the old compacted file is ignored — the base and the
// current deltas are applied — a new one is written, and the old one is
// removed.
func TestCompactionStaleLineage(t *testing.T) {
	dir := t.TempDir()
	cfg := synth.FlagshipSeries(testSeed)
	writeBase(t, dir, CorpusFlagship, cfg)
	sc21 := scSpec(t, cfg, 2021)
	writeDelta(t, dir, CorpusFlagship, cfg, sc21)
	materialize(t, dirServer(t, dir, nil), CorpusFlagship, testSeed)
	old := compactedFiles(t, dir, CorpusFlagship, testSeed)
	if len(old) != 1 {
		t.Fatalf("compacted files: %v, want one", old)
	}

	check := func(stage string, grown synth.Config, applies string) {
		t.Helper()
		s := dirServer(t, dir, nil)
		if st := materialize(t, s, CorpusFlagship, testSeed); st.Revision() != uint64(len(grown.Confs)-len(cfg.Confs)) {
			t.Errorf("%s: revision %d, want %d", stage, st.Revision(), len(grown.Confs)-len(cfg.Confs))
		}
		wantCounters(t, s, map[string]string{
			"whpcd_snapshot_compacted_loads_total": "0",
			"whpcd_delta_applies_total":            applies,
			compactWrittenMetric:                   "1",
		})
		files := compactedFiles(t, dir, CorpusFlagship, testSeed)
		if len(files) != 1 || files[0] == old[0] {
			t.Fatalf("%s: compacted files %v, want one replacing %v", stage, files, old)
		}
		if fileSum(t, files[0]) != savedSnapshotSum(t, grown) {
			t.Errorf("%s: new compacted snapshot differs from the resynthesized grown study", stage)
		}
		old = files
	}

	// Replaced: a recalibrated SC'21 under the same file name.
	sc21.Papers++
	grown := writeDelta(t, dir, CorpusFlagship, cfg, sc21)
	check("replaced delta", grown, "1")

	// Added: SC'22 on top of it.
	grown = writeDelta(t, dir, CorpusFlagship, grown, scSpec(t, grown, 2022))
	check("added delta", grown, "2")
}

// TestRevisionSurvivesCompaction: one key served before a delta lands,
// after it, and again from the compacted snapshot never gets pre-delta
// bytes from the exhibit cache: the compacted study carries the revision
// of the base plus its delta, not the base's.
func TestRevisionSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := synth.FlagshipSeries(testSeed)
	writeBase(t, dir, CorpusFlagship, cfg)
	s := dirServer(t, dir, nil)
	const target = "/v1/trend?corpus=flagship"
	base := post(t, s, target, "")
	if base.Code != http.StatusOK {
		t.Fatalf("base trend: %d: %s", base.Code, base.Body.String())
	}

	grown := writeDelta(t, dir, CorpusFlagship, cfg, scSpec(t, cfg, 2021))
	st, err := repro.NewStudyFromConfig(grown)
	if err != nil {
		t.Fatal(err)
	}
	want := exhibitQueryCSV(t, st, "trend")
	if bytes.Equal(base.Body.Bytes(), want) {
		t.Fatal("fixture: the delta does not change the trend")
	}
	for _, stage := range []string{"base + delta", "compacted"} {
		// Evict the resident study; the exhibit cache keeps its renders.
		s.studies = NewStudyRegistry(1, s.buildStudy, nil, nil, nil)
		if got := post(t, s, target, ""); !bytes.Equal(got.Body.Bytes(), want) {
			t.Errorf("%s: /v1/trend served pre-delta bytes (X-Cache %s)", stage, got.Header().Get("X-Cache"))
		}
	}
	wantCounters(t, s, map[string]string{
		"whpcd_snapshot_compacted_loads_total": "1",
		"whpcd_delta_applies_total":            "1",
	})
}
