package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/synth"
)

// whpc runs the command over args and returns what it printed to stdout.
func whpc(t *testing.T, args ...string) (string, error) {
	t.Helper()
	o, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	var stdout bytes.Buffer
	err = run(o, &stdout, io.Discard)
	return stdout.String(), err
}

// mustWhpc is whpc failing the test on an error.
func mustWhpc(t *testing.T, args ...string) string {
	t.Helper()
	out, err := whpc(t, args...)
	if err != nil {
		t.Fatalf("whpc %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// farSpec asks for the female author ratio and the author slots of every
// conference and of the whole corpus (ALL), as JSON.
const farSpec = `{
  "frame": "slots",
  "where": [{"col": "role", "op": "eq", "value": "author"}],
  "group_by": ["conference"],
  "aggs": [
    {"op": "count", "as": "slots"},
    {"op": "ratio", "num": "female", "den": "known", "as": "far"}
  ],
  "totals": "ALL"
}`

// outputModes are the three ways whpc prints a study: one exhibit, a
// query result, and the whole report.
var outputModes = []struct {
	name string
	args []string
}{
	{"exhibit", []string{"-exhibit", "sec32-pc"}},
	{"query", []string{"-query", farSpec}},
	{"report", nil},
}

// TestSaveThenLoadReportsSameBytes: the CSV corpus -save writes loads back
// with -load into a study whose report is byte-identical to the generated
// study's, on the default and the flagship corpus.
func TestSaveThenLoadReportsSameBytes(t *testing.T) {
	for _, c := range []struct {
		name  string
		flags []string
		confs int
	}{
		{"default", nil, 9},
		// The flagship series spans SC/ISC 2016-2020: exactly 10 editions.
		{"flagship", []string{"-flagship"}, 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			generated := mustWhpc(t, append([]string{"-seed", "7", "-save", dir}, c.flags...)...)
			if loaded := mustWhpc(t, "-load", dir); loaded != generated {
				t.Error("-load report differs from the report of the generated study -save wrote")
			}
			study, err := repro.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(study.Dataset().Conferences); n != c.confs {
				t.Errorf("saved corpus has %d conferences, want %d", n, c.confs)
			}
		})
	}
}

// TestSnapshotInMatchesLoad: analyzing the same corpus through
// -snapshot-in and through -load prints identical bytes, for one exhibit,
// a query and the whole report, and the report is the generated study's.
func TestSnapshotInMatchesLoad(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(t.TempDir(), "corpus.whpcsnap")
	generated := mustWhpc(t, "-seed", "7", "-save", dir, "-snapshot-out", snapPath)
	for _, mode := range outputModes {
		t.Run(mode.name, func(t *testing.T) {
			fromDir := mustWhpc(t, append([]string{"-load", dir}, mode.args...)...)
			fromSnap := mustWhpc(t, append([]string{"-snapshot-in", snapPath}, mode.args...)...)
			if fromDir != fromSnap {
				t.Error("-snapshot-in output differs from -load output for the same corpus")
			}
			if mode.args == nil && fromSnap != generated {
				t.Error("-snapshot-in report differs from the generated study's")
			}
		})
	}
}

// TestDeltaOutThenDeltaInMatchesRebuild is the CLI-level byte-identity
// proof for the longitudinal workload: a -delta-out edition applied with
// -delta-in, onto the base snapshot or onto the regenerated base, prints
// exactly the bytes the corpus resynthesized with the extra year from the
// start prints, for one exhibit, a query and the whole report.
func TestDeltaOutThenDeltaInMatchesRebuild(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.whpcsnap")
	deltaPath := filepath.Join(dir, "sc21.delta.whpcsnap")
	mustWhpc(t, "-seed", "7", "-flagship", "-snapshot-out", basePath,
		"-delta-year", "2021", "-delta-out", deltaPath)

	cfg := synth.FlagshipSeries(7)
	spec, err := synth.YearSpec(cfg, "SC", 2021)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Confs = append(append([]synth.ConfSpec(nil), cfg.Confs...), spec)
	grown, err := repro.NewStudyFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(grown.Dataset().Conferences); n != 11 {
		t.Fatalf("rebuilt corpus has %d conferences, want 11", n)
	}
	grownPath := filepath.Join(dir, "grown.whpcsnap")
	if err := grown.SaveSnapshot(grownPath); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := grown.WriteReport(&report); err != nil {
		t.Fatal(err)
	}

	for _, mode := range outputModes {
		t.Run(mode.name, func(t *testing.T) {
			rebuilt := mustWhpc(t, append([]string{"-snapshot-in", grownPath}, mode.args...)...)
			if mode.args == nil && rebuilt != report.String() {
				t.Fatal("-snapshot-in of the rebuilt corpus differs from its own report")
			}
			for _, base := range [][]string{
				{"-snapshot-in", basePath},
				{"-seed", "7", "-flagship"},
			} {
				args := append(append(base, "-delta-in", deltaPath), mode.args...)
				if applied := mustWhpc(t, args...); applied != rebuilt {
					t.Errorf("whpc %s differs from the rebuilt corpus's output", strings.Join(base, " "))
				}
			}
		})
	}
}

// whpcLog runs the command over args, failing the test on an error, and
// returns what it logged to stderr.
func whpcLog(t *testing.T, args ...string) string {
	t.Helper()
	o, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	var stderr bytes.Buffer
	if err := run(o, io.Discard, &stderr); err != nil {
		t.Fatalf("whpc %s: %v", strings.Join(args, " "), err)
	}
	return stderr.String()
}

// TestSnapshotOutOpensAsGeneratedStudy: the snapshot -snapshot-out writes
// opens through the library into a study whose report is byte-identical
// to the generated study's, and the command says where it wrote it.
func TestSnapshotOutOpensAsGeneratedStudy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.whpcsnap")
	if log := whpcLog(t, "-seed", "7", "-snapshot-out", path); !strings.Contains(log, "snapshot saved to "+path) {
		t.Errorf("log %q does not report the snapshot", log)
	}
	loaded, err := repro.OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v", err)
	}
	direct, err := repro.NewStudy(7)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := direct.WriteReport(&want); err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteReport(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("report from the snapshot-opened study differs from the generated study's")
	}
}

// TestDeltaOutAppliesThroughLibrary: the delta -delta-out writes applies
// through the library onto the generated flagship study, giving the
// corpus resynthesized with the extra year its female author ratio and
// conference count, and the command says where it wrote it.
func TestDeltaOutAppliesThroughLibrary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc21.delta.whpcsnap")
	if log := whpcLog(t, "-seed", "7", "-flagship", "-delta-year", "2021", "-delta-out", path); !strings.Contains(log, "delta saved to "+path) {
		t.Errorf("log %q does not report the delta file", log)
	}
	base, err := repro.NewStudyFromConfig(synth.FlagshipSeries(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := base.ApplyDeltaFile(path); err != nil {
		t.Fatalf("ApplyDeltaFile: %v", err)
	}
	cfg := synth.FlagshipSeries(7)
	spec, err := synth.YearSpec(cfg, "SC", 2021)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Confs = append(append([]synth.ConfSpec(nil), cfg.Confs...), spec)
	grown, err := repro.NewStudyFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := base.FAR().Overall, grown.FAR().Overall; got != want {
		t.Errorf("delta-applied FAR %v differs from resynthesized FAR %v", got, want)
	}
	if n := len(base.Dataset().Conferences); n != 11 {
		t.Errorf("delta-applied corpus has %d conferences, want 11", n)
	}
}

// TestQueryMatchesStudy: the JSON -query prints over a loaded corpus
// carries the statistics the library computes directly: author slots, the
// overall and every per-conference female author ratio, and the paper
// count.
func TestQueryMatchesStudy(t *testing.T) {
	study, err := repro.NewStudy(7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := study.Save(dir); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	out := mustWhpc(t, "-load", dir, "-query", farSpec)
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	d := study.Dataset()
	far := study.FAR()
	want := [][]any{}
	for _, row := range far.PerConf {
		want = append(want, []any{row.Name, float64(len(d.AuthorSlots(row.Conf))), row.Ratio.Ratio()})
	}
	want = append(want, []any{"ALL", float64(far.TotalSlots), far.Overall.Ratio()})
	if got, w := fmt.Sprint(res.Rows), fmt.Sprint(want); got != w {
		t.Errorf("rows = %s, want %s", got, w)
	}

	out = mustWhpc(t, "-load", dir, "-query", `{"frame": "papers", "aggs": [{"op": "count", "as": "papers"}]}`)
	if want := fmt.Sprintf(`{"columns":["papers"],"rows":[[%d]]}`+"\n", len(d.Papers)); out != want {
		t.Errorf("paper count = %s, want %s", out, want)
	}
}

// TestExhibitPrintsOneSection: -exhibit prints the one exhibit it names,
// the bytes Study.Exhibit renders; sec32-pc carries the PC women ratio and
// the PC-vs-author p. An unknown ID is an error.
func TestExhibitPrintsOneSection(t *testing.T) {
	study, err := repro.NewStudy(7)
	if err != nil {
		t.Fatal(err)
	}
	out := mustWhpc(t, "-seed", "7", "-exhibit", "sec32-pc")
	ex, _ := study.Exhibit("sec32-pc")
	var want bytes.Buffer
	if err := ex.Render(&want); err != nil {
		t.Fatal(err)
	}
	if out != want.String() {
		t.Errorf("-exhibit sec32-pc printed\n%s\nwant\n%s", out, want.String())
	}
	pc, err := study.PC()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{
		fmt.Sprintf("women %s", pc.Overall),
		fmt.Sprintf("p = %.4g", pc.VsAuthors.P),
	} {
		if !strings.Contains(out, s) {
			t.Errorf("-exhibit sec32-pc output lacks %q:\n%s", s, out)
		}
	}
	if _, err := whpc(t, "-seed", "7", "-exhibit", "no-such-exhibit"); err == nil {
		t.Error("-exhibit with an unknown ID succeeded")
	}
}

// TestErrorOnMissingInput: a missing corpus directory, snapshot or delta
// is an error, not an empty report.
func TestErrorOnMissingInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope")
	for _, args := range [][]string{
		{"-load", missing},
		{"-snapshot-in", missing + ".whpcsnap"},
		{"-delta-in", missing + ".delta.whpcsnap"},
	} {
		if out, err := whpc(t, args...); err == nil || out != "" {
			t.Errorf("whpc %s: printed %d bytes, error %v; want an error and no output",
				strings.Join(args, " "), len(out), err)
		}
	}
}

// TestRejectsBadFlagCombinations: a flag whose meaning the other flags
// would drop is refused before any corpus is built, and no file is
// written.
func TestRejectsBadFlagCombinations(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.delta.whpcsnap")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"flagship-extended", []string{"-flagship", "-extended"}},
		{"delta-year-without-delta-out", []string{"-delta-year", "2018"}},
		{"delta-out-without-delta-year", []string{"-delta-out", out}},
		{"delta-out-with-load", []string{"-delta-out", out, "-delta-year", "2018", "-load", dir}},
		{"delta-out-with-snapshot-in", []string{"-delta-out", out, "-delta-year", "2018", "-snapshot-in", out}},
		{"delta-out-with-fault-profile", []string{"-delta-out", out, "-delta-year", "2018", "-fault-profile", "clean"}},
		{"delta-out-with-delta-in", []string{"-delta-out", out, "-delta-year", "2018", "-delta-in", out}},
		{"snapshot-in-with-load", []string{"-snapshot-in", out, "-load", dir}},
		{"fault-profile-with-load", []string{"-fault-profile", "clean", "-load", dir}},
		{"fault-profile-with-snapshot-in", []string{"-fault-profile", "clean", "-snapshot-in", out}},
		// -seed at its default value is refused too: it was given.
		{"seed-with-load", []string{"-seed", "2021", "-load", dir}},
		{"seed-with-snapshot-in", []string{"-seed", "7", "-snapshot-in", out}},
		{"flagship-with-load", []string{"-flagship", "-load", dir}},
		{"flagship-with-snapshot-in", []string{"-flagship", "-snapshot-in", out}},
		{"extended-with-load", []string{"-extended", "-load", dir}},
		{"extended-with-snapshot-in", []string{"-extended", "-snapshot-in", out}},
	} {
		t.Run(c.name, func(t *testing.T) {
			o, err := parseFlags(c.args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := check(o); err == nil {
				t.Fatalf("whpc %s passed the flag check", strings.Join(c.args, " "))
			}
			if stdout, err := whpc(t, c.args...); err == nil || stdout != "" {
				t.Errorf("whpc %s: printed %d bytes, error %v", strings.Join(c.args, " "), len(stdout), err)
			}
			if _, err := os.Stat(out); err == nil {
				t.Errorf("whpc %s wrote %s", strings.Join(c.args, " "), out)
			}
		})
	}
}

// TestExportCSVsMatchExhibitCSV: -csv writes every exhibit family through
// Study.ExhibitCSV, so each file holds the bytes whpcd serves for it.
func TestExportCSVsMatchExhibitCSV(t *testing.T) {
	study, err := repro.NewStudy(2021)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var log bytes.Buffer
	if err := exportCSVs(dir, study, &log); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 0 {
		t.Errorf("families skipped on the default corpus: %s", log.String())
	}
	for _, name := range repro.ExhibitFamilies() {
		got, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := study.ExhibitCSV(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s.csv differs from Study.ExhibitCSV", name)
		}
	}
	golden, err := os.ReadFile("../../testdata/cite_flow.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "cite_flow.csv")); !bytes.Equal(got, golden) {
		t.Errorf("cite_flow.csv differs from testdata/cite_flow.golden.csv:\n%s", got)
	}
}

// TestExportCSVsOnePaperCorpus: on a one-paper corpus, where the sectors
// contingency table is degenerate and the citation graph has no edges,
// every family the engine answers is still written, and the one it cannot
// (cite_gap, no conference-year has a citation) is named and skipped
// instead of failing the export.
func TestExportCSVsOnePaperCorpus(t *testing.T) {
	cfg := synth.Default2017(2021)
	cfg.Confs = cfg.Confs[:1]
	// One paper of 14 authors, half of them women, so both genders hold
	// author bands and experience_bands is defined.
	c := &cfg.Confs[0]
	c.Papers, c.AuthorSlots, c.FAR = 1, 14, 0.5
	study, err := repro.NewStudyFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(study.Dataset().Papers); n != 1 {
		t.Fatalf("corpus has %d papers, want 1", n)
	}
	dir := t.TempDir()
	var log bytes.Buffer
	if err := exportCSVs(dir, study, &log); err != nil {
		t.Fatalf("export failed: %v", err)
	}
	for _, name := range repro.ExhibitFamilies() {
		_, err := os.Stat(filepath.Join(dir, name+".csv"))
		skipped := strings.Contains(log.String(), "skipping "+name+".csv")
		switch {
		case name == "cite_gap" && (!skipped || err == nil):
			t.Errorf("cite_gap: skipped %v, file error %v; want skipped with no file", skipped, err)
		case name != "cite_gap" && (skipped || err != nil):
			t.Errorf("%s: skipped %v, file error %v; want written", name, skipped, err)
		}
	}
}

// TestExportCSVsOnePaperDefaultCut: on the default corpus cut to one paper
// at its own calibration, no gendered author band holds both genders, so
// experience_bands is not applicable; it is named and skipped with
// cite_gap, and every other family is written.
func TestExportCSVsOnePaperDefaultCut(t *testing.T) {
	for _, slots := range []int{3, 14} {
		cfg := synth.Default2017(2021)
		cfg.Confs = cfg.Confs[:1]
		cfg.Confs[0].Papers, cfg.Confs[0].AuthorSlots = 1, slots
		study, err := repro.NewStudyFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		var log bytes.Buffer
		if err := exportCSVs(dir, study, &log); err != nil {
			t.Fatalf("%d authors: export failed: %v", slots, err)
		}
		for _, name := range repro.ExhibitFamilies() {
			_, err := os.Stat(filepath.Join(dir, name+".csv"))
			skipped := strings.Contains(log.String(), "skipping "+name+".csv")
			if want := name == "cite_gap" || name == "experience_bands"; skipped != want || (err == nil) == want {
				t.Errorf("%d authors: %s: skipped %v, file error %v; want skipped %v", slots, name, skipped, err, want)
			}
		}
	}
}
