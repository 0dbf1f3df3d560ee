package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/chaos"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/snap"
)

// writeTestSnapshot saves the testSeed default-corpus snapshot under the
// registry's warm-boot naming convention and returns the directory.
func writeTestSnapshot(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	study, err := repro.NewStudy(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.SaveSnapshot(filepath.Join(dir, snap.CorpusFileName(CorpusDefault, testSeed))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// metricValue scrapes one counter from the /metrics exposition text.
func metricValue(t *testing.T, s *Server, name string) string {
	t.Helper()
	body := get(t, s, "/metrics").Body.String()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("metric %s not found in /metrics", name)
	return ""
}

// TestSnapshotWarmBoot: with a valid snapshot present, the registry must
// serve from it (loads counter increments) and the response bytes must be
// identical to a synthesized study's.
func TestSnapshotWarmBoot(t *testing.T) {
	leakcheck.Check(t)
	dir := writeTestSnapshot(t)
	warm := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Metrics = obs.NewRegistry()
	})
	cold := newTestServer(t, nil)

	warmRec := get(t, warm, "/v1/far")
	coldRec := get(t, cold, "/v1/far")
	if warmRec.Code != http.StatusOK || coldRec.Code != http.StatusOK {
		t.Fatalf("status warm=%d cold=%d, want 200/200", warmRec.Code, coldRec.Code)
	}
	if warmRec.Body.String() != coldRec.Body.String() {
		t.Error("/v1/far from a snapshot-loaded study differs from a synthesized one")
	}
	if got := metricValue(t, warm, "whpcd_snapshot_loads_total"); got != "1" {
		t.Errorf("whpcd_snapshot_loads_total = %s, want 1", got)
	}
	if got := metricValue(t, warm, "whpcd_snapshot_fallbacks_total"); got != "0" {
		t.Errorf("whpcd_snapshot_fallbacks_total = %s, want 0", got)
	}
}

// TestSnapshotFallbackOnMiss: a SnapshotDir without the requested file
// must synthesize and count a fallback, not fail the request.
func TestSnapshotFallbackOnMiss(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.SnapshotDir = t.TempDir()
		c.Metrics = obs.NewRegistry()
	})
	if rec := get(t, s, "/v1/far"); rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := metricValue(t, s, "whpcd_snapshot_fallbacks_total"); got != "1" {
		t.Errorf("whpcd_snapshot_fallbacks_total = %s, want 1", got)
	}
	if got := metricValue(t, s, "whpcd_snapshot_loads_total"); got != "0" {
		t.Errorf("whpcd_snapshot_loads_total = %s, want 0", got)
	}
}

// TestSnapshotFallbackOnCorruption: a bit-flipped snapshot must fail
// checksum validation and degrade to synthesis with identical bytes.
func TestSnapshotFallbackOnCorruption(t *testing.T) {
	dir := writeTestSnapshot(t)
	path := filepath.Join(dir, snap.CorpusFileName(CorpusDefault, testSeed))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Metrics = obs.NewRegistry()
	})
	cold := newTestServer(t, nil)
	rec := get(t, s, "/v1/far")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if rec.Body.String() != get(t, cold, "/v1/far").Body.String() {
		t.Error("fallback response differs from a synthesized study's")
	}
	if got := metricValue(t, s, "whpcd_snapshot_fallbacks_total"); got != "1" {
		t.Errorf("whpcd_snapshot_fallbacks_total = %s, want 1", got)
	}
}

// renameInFrames replaces the one occurrence of old, which must lie in the
// frames section of the snapshot file at path, with new of the same
// length, and rewrites that section's checksum in the directory and the
// whole-file checksum. The file then passes every checksum.
func renameInFrames(t *testing.T, path, old, new string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(old))
	if len(old) != len(new) || at < 0 || bytes.Count(data, []byte(old)) != 1 {
		t.Fatalf("%q occurs %d times in %s, want once, and must be as long as %q", old, bytes.Count(data, []byte(old)), path, new)
	}
	copy(data[at:], new)
	le := binary.LittleEndian
	off := 16 // magic, version, reserved, section count
	for n := le.Uint32(data[12:16]); n > 0; n-- {
		name := string(data[off+1 : off+1+int(data[off])])
		off += 1 + len(name)
		start, length := le.Uint64(data[off:]), le.Uint64(data[off+8:])
		if name == snap.SectionFrames {
			if uint64(at) < start || uint64(at) >= start+length {
				t.Fatalf("%q is not in the frames section", old)
			}
			le.PutUint32(data[off+16:], crc32.ChecksumIEEE(data[start:start+length]))
		}
		off += 8 + 8 + 4
	}
	body := len(data) - 4
	le.PutUint32(data[body:], crc32.ChecksumIEEE(data[:body]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotShapeMismatchQuarantined: a snapshot that passes every
// checksum but whose frames differ from the schema (here the slots frame
// renamed, so the set has no slots frame) fails its open and its retry,
// is quarantined, and the study is synthesized: an exhibit query over
// slots serves the synthesized study's bytes, not an engine error.
func TestSnapshotShapeMismatchQuarantined(t *testing.T) {
	dir := writeTestSnapshot(t)
	path := filepath.Join(dir, snap.CorpusFileName(CorpusDefault, testSeed))
	// The frame name, with its length prefix.
	renameInFrames(t, path, "\x05slots", "\x05slotz")
	var errLog strings.Builder
	// An empty schedule fires nothing but counts every read.
	reads := chaos.NewScheduled(&chaos.Schedule{})
	s := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Metrics = obs.NewRegistry()
		c.ErrorLog = &errLog
		c.Chaos = reads
	})
	const route = "/v1/csv/role_representation"
	rec := get(t, s, route)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s status = %d, want 200: %s", route, rec.Code, rec.Body.String())
	}
	if want := get(t, newTestServer(t, nil), route).Body.String(); rec.Body.String() != want {
		t.Errorf("%s differs from the synthesized study's", route)
	}
	if got := reads.Hits(chaos.PointSnapRead); got != 2 {
		t.Errorf("snap.read hits = %d, want 2 (the open and its retry)", got)
	}
	wantCounters(t, s, map[string]string{
		"whpcd_snapshot_quarantines_total": "1",
		"whpcd_snapshot_fallbacks_total":   "1",
		"whpcd_snapshot_loads_total":       "0",
	})
	if _, err := os.Stat(path + QuarantineSuffix); err != nil {
		t.Errorf("snapshot not renamed aside: %v", err)
	}
	if !strings.Contains(errLog.String(), `failing section \"frames\"`) {
		t.Errorf("error log does not name the frames section: %q", errLog.String())
	}
}

// TestSnapshotNotUsedForHarvestedStudies: profile-carrying keys must
// synthesize (the harvest is the product), never touch the snapshot dir.
func TestSnapshotNotUsedForHarvestedStudies(t *testing.T) {
	dir := writeTestSnapshot(t)
	s := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Metrics = obs.NewRegistry()
	})
	if rec := get(t, s, "/v1/far?profile=clean"); rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := metricValue(t, s, "whpcd_snapshot_loads_total"); got != "0" {
		t.Errorf("whpcd_snapshot_loads_total = %s, want 0 for a harvested study", got)
	}
	if got := metricValue(t, s, "whpcd_snapshot_fallbacks_total"); got != "0" {
		t.Errorf("whpcd_snapshot_fallbacks_total = %s, want 0 for a harvested study", got)
	}
}
