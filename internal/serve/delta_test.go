package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/delta"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/synth"
)

// writeDeltaDir builds the longitudinal serving fixture: the flagship base
// snapshot plus the SC'21 year delta, both under the snapshot-dir naming
// convention, so a booting server materializes the grown corpus.
func writeDeltaDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := synth.FlagshipSeries(testSeed)
	writeBase(t, dir, CorpusFlagship, cfg)
	writeDelta(t, dir, CorpusFlagship, cfg, scSpec(t, cfg, 2021))
	return dir
}

// grownFlagship resynthesizes the flagship corpus with SC'21 in its
// calibration from the start — the ground truth a delta-serving server
// must match byte-for-byte.
func grownFlagship(t *testing.T) *repro.Study {
	t.Helper()
	cfg := synth.FlagshipSeries(testSeed)
	cfg.Confs = append(append([]synth.ConfSpec(nil), cfg.Confs...), scSpec(t, cfg, 2021))
	s, err := repro.NewStudyFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writeBase saves cfg's synthesized corpus as the key's base snapshot.
func writeBase(t *testing.T, dir, corpus string, cfg synth.Config) {
	t.Helper()
	st, err := repro.NewStudyFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(filepath.Join(dir, snap.CorpusFileName(corpus, cfg.Seed))); err != nil {
		t.Fatal(err)
	}
}

// writeDelta writes the year delta appending spec to cfg's corpus under
// the key's delta naming convention and returns cfg grown by spec.
func writeDelta(t *testing.T, dir, corpus string, cfg synth.Config, spec synth.ConfSpec) synth.Config {
	t.Helper()
	yd, base, err := synth.GenerateYearDelta(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := delta.WriteFile(filepath.Join(dir, snap.DeltaFileName(corpus, cfg.Seed, spec.Year)), yd, base.Data); err != nil {
		t.Fatal(err)
	}
	cfg.Confs = append(append([]synth.ConfSpec(nil), cfg.Confs...), spec)
	return cfg
}

// scSpec derives the SC edition of year from cfg's calibration.
func scSpec(t *testing.T, cfg synth.Config, year int) synth.ConfSpec {
	t.Helper()
	spec, err := synth.YearSpec(cfg, "SC", year)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// exhibitQueryCSV renders one exhibit query directly on a study.
func exhibitQueryCSV(t *testing.T, st *repro.Study, name string) []byte {
	t.Helper()
	eq, ok := repro.ExhibitQueryByName(name)
	if !ok {
		t.Fatalf("no %s exhibit query", name)
	}
	res, err := st.Query(eq.Query)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.CSV()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeltaAppliedAtMaterialization: a snapshot dir holding a base
// snapshot plus a year delta must serve the grown corpus — /v1/trend in
// both views byte-identical to a study resynthesized with the extra year —
// and count exactly one delta apply and zero quarantines.
func TestDeltaAppliedAtMaterialization(t *testing.T) {
	leakcheck.Check(t)
	dir := writeDeltaDir(t)
	s := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Metrics = obs.NewRegistry()
	})
	grown := grownFlagship(t)

	for view, name := range map[string]string{"far": "trend", "retention": "retention"} {
		rec := post(t, s, "/v1/trend?corpus=flagship", `{"view":"`+view+`"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("view %s: status = %d: %s", view, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), exhibitQueryCSV(t, grown, name)) {
			t.Errorf("view %s: /v1/trend differs from the resynthesized grown corpus", view)
		}
	}
	// The empty body defaults to the FAR view.
	def := post(t, s, "/v1/trend?corpus=flagship", "")
	if def.Code != http.StatusOK {
		t.Fatalf("default view: status = %d: %s", def.Code, def.Body.String())
	}
	if !bytes.Equal(def.Body.Bytes(), exhibitQueryCSV(t, grown, "trend")) {
		t.Error("default /v1/trend differs from the far view")
	}

	// The whole corpus is grown, not just the trend: the CSV exports match
	// the resynthesis too.
	rec := get(t, s, "/v1/csv/retention?corpus=flagship")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/csv/retention status = %d: %s", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), exhibitQueryCSV(t, grown, "retention")) {
		t.Error("/v1/csv/retention differs from the resynthesized grown corpus")
	}

	if got := metricValue(t, s, "whpcd_delta_applies_total"); got != "1" {
		t.Errorf("whpcd_delta_applies_total = %s, want 1", got)
	}
	if got := metricValue(t, s, "whpcd_snapshot_quarantines_total"); got != "0" {
		t.Errorf("whpcd_snapshot_quarantines_total = %s, want 0", got)
	}
	if got := metricValue(t, s, "whpcd_snapshot_loads_total"); got != "1" {
		t.Errorf("whpcd_snapshot_loads_total = %s, want 1", got)
	}
}

// TestDeltaTrendUnknownView: an unrecognized view is the client's 400 with
// the structured error envelope, listing the route's views in sorted order.
func TestDeltaTrendUnknownView(t *testing.T) {
	s := newTestServer(t, nil)
	rec := post(t, s, "/v1/trend", `{"view":"sideways"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	const want = `unknown trend view "sideways" (have [far retention])`
	if dto := decodeQueryError(t, rec); dto.Error != want {
		t.Errorf("error %q, want %q", dto.Error, want)
	}
}

// TestDeltaTornFileQuarantined: a truncated delta file must be quarantined
// through the snapshot quarantine path and the base study must serve
// untouched — the torn year is dropped, never half-applied.
func TestDeltaTornFileQuarantined(t *testing.T) {
	dir := writeDeltaDir(t)
	path := filepath.Join(dir, snap.DeltaFileName(CorpusFlagship, testSeed, 2021))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Metrics = obs.NewRegistry()
	})
	base, err := repro.NewStudyFromConfig(synth.FlagshipSeries(testSeed))
	if err != nil {
		t.Fatal(err)
	}

	rec := post(t, s, "/v1/trend?corpus=flagship", `{"view":"far"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), exhibitQueryCSV(t, base, "trend")) {
		t.Error("base study's trend changed after a torn delta — the apply was not atomic")
	}
	if got := metricValue(t, s, "whpcd_delta_applies_total"); got != "0" {
		t.Errorf("whpcd_delta_applies_total = %s, want 0", got)
	}
	if got := metricValue(t, s, "whpcd_snapshot_quarantines_total"); got != "1" {
		t.Errorf("whpcd_snapshot_quarantines_total = %s, want 1", got)
	}
	if _, err := os.Stat(path + QuarantineSuffix); err != nil {
		t.Errorf("torn delta was not renamed aside: %v", err)
	}
}
