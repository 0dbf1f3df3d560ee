// Command whpc reproduces the full SC '21 paper "Representation of Women
// in HPC Conferences": it generates (or loads) a corpus and prints every
// table and figure of the paper's evaluation. It is also the corpus tool:
// it writes a corpus as CSVs (-save), as a binary snapshot (-snapshot-out)
// or as a year delta (-delta-out), and analyzes any of them.
//
// Usage:
//
//	whpc [-seed N] [-flagship | -extended] [-fault-profile NAME]
//	     [-load DIR | -snapshot-in FILE] [-delta-in FILES]
//	     [-save DIR] [-snapshot-out FILE] [-csv DIR]
//	     [-delta-out FILE -delta-year N [-delta-series S]]
//	     [-list | -exhibit ID | -query SPEC]
//
// With -flagship the §3.4 SC/ISC 2016-2020 corpus is used instead of the
// main nine-conference 2017 corpus, and with -extended the nine HPC venues
// plus a cross-section of other computer-systems subfields (future work);
// the two are mutually exclusive. -save writes the corpus CSVs before
// reporting; -load analyzes a previously saved corpus (or CSVs of a corpus
// you assembled yourself) instead of generating one, so -seed, -flagship
// and -extended, which choose the corpus to generate, are refused with it
// and with -snapshot-in. -fault-profile
// harvests the bibliometric services through a named fault-injection
// profile (clean, flaky, degraded, outage) and appends the
// resilient-ingestion and degraded-coverage sections to the report; it
// cannot be combined with -load (a saved corpus carries no live services
// to harvest). -list prints the stable exhibit IDs and titles; -exhibit
// renders a single exhibit instead of the whole report. -query runs an
// ad-hoc columnar query (inline JSON, or @file to read the spec from a
// file; see the README's Querying section) and prints the result in the
// spec's format — json by default, csv on request. -snapshot-out saves
// the study as a checksummed binary snapshot (corpus plus pre-built query
// frames) after construction; -snapshot-in loads such a snapshot instead
// of generating, which is an order of magnitude faster and cannot be
// combined with -load or -fault-profile. -csv also writes every exhibit
// family as DIR/<family>.csv, the bytes whpcd serves at /v1/csv/<family>;
// a family the corpus cannot answer is named on stderr and skipped.
//
// -delta-in applies year-delta snapshots (written by -delta-out, see the
// README's Longitudinal deltas section) to the study before analysis:
// comma-separated paths, applied in order, each patching the corpus and
// its query frames in place instead of rebuilding them. -delta-out
// generates the next -delta-year edition of -delta-series (default SC)
// against the generated corpus and writes it as a delta snapshot; it
// requires a generated corpus, since the delta is fingerprinted against
// the exact base it extends, and that base is the study analyzed.
// -delta-year without -delta-out is refused.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/faulty"
	"repro/internal/query"
	"repro/internal/synth"
)

// options carries the parsed command line.
type options struct {
	seed         uint64
	seedSet      bool // -seed was given, even at its default
	load         string
	save         string
	csvOut       string
	flagship     bool
	extended     bool
	faultProfile string
	snapIn       string
	snapOut      string
	deltaIn      string
	deltaOut     string
	deltaYear    int
	deltaSeries  string
	list         bool
	exhibit      string
	querySpec    string
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and the usage
	}
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "whpc:", err)
		os.Exit(1)
	}
}

// parseFlags parses the command line args (without the program name);
// parse errors and -help print to stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("whpc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Uint64Var(&o.seed, "seed", 2021, "generator seed (deterministic corpus per seed)")
	fs.StringVar(&o.load, "load", "", "load a saved corpus from this directory instead of generating")
	fs.StringVar(&o.save, "save", "", "save the corpus CSVs into this directory")
	fs.StringVar(&o.csvOut, "csv", "", "also export the exhibits as CSV files into this directory")
	fs.BoolVar(&o.flagship, "flagship", false, "use the SC/ISC 2016-2020 flagship corpus (§3.4)")
	fs.BoolVar(&o.extended, "extended", false, "use the extended all-systems-subfields corpus (future work)")
	fs.StringVar(&o.faultProfile, "fault-profile", "",
		"harvest the bibliometric services under a fault profile ("+strings.Join(faulty.ProfileNames(), ", ")+")")
	fs.BoolVar(&o.list, "list", false, "list the exhibit IDs and titles instead of reporting")
	fs.StringVar(&o.exhibit, "exhibit", "", "render only the exhibit with this ID")
	fs.StringVar(&o.querySpec, "query", "",
		"run an ad-hoc columnar query instead of reporting (inline JSON, or @file to read the spec from a file)")
	fs.StringVar(&o.snapIn, "snapshot-in", "", "load the study from a binary snapshot instead of generating")
	fs.StringVar(&o.snapOut, "snapshot-out", "", "save the study as a binary snapshot to this file")
	fs.StringVar(&o.deltaIn, "delta-in", "", "apply year-delta snapshots before analysis (comma-separated files, in order)")
	fs.StringVar(&o.deltaOut, "delta-out", "", "write the -delta-year edition as a year-delta snapshot to this file")
	fs.IntVar(&o.deltaYear, "delta-year", 0, "year of the edition -delta-out generates")
	fs.StringVar(&o.deltaSeries, "delta-series", "SC", "conference series the -delta-out edition extends")
	err := fs.Parse(args)
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			o.seedSet = true
		}
	})
	return o, err
}

// check refuses flag combinations whose meaning would otherwise be
// silently dropped, before any corpus is built.
func check(o options) error {
	switch {
	case o.flagship && o.extended:
		return errors.New("-flagship and -extended are mutually exclusive")
	case o.snapIn != "" && o.load != "":
		return errors.New("-snapshot-in and -load are mutually exclusive")
	case (o.load != "" || o.snapIn != "") && (o.seedSet || o.flagship || o.extended):
		return errors.New("-seed, -flagship and -extended choose the corpus to generate; they cannot be combined with -load or -snapshot-in")
	case o.faultProfile != "" && o.snapIn != "":
		return errors.New("-fault-profile requires a generated corpus, not -snapshot-in")
	case o.faultProfile != "" && o.load != "":
		return errors.New("-fault-profile requires a generated corpus, not -load")
	}
	if o.deltaOut == "" {
		if o.deltaYear != 0 {
			return errors.New("-delta-year requires -delta-out (the file the edition is written to)")
		}
		return nil
	}
	switch {
	case o.deltaYear == 0:
		return errors.New("-delta-out requires -delta-year (the edition to generate)")
	case o.load != "" || o.snapIn != "" || o.faultProfile != "":
		return errors.New("-delta-out fingerprints the delta against a generated corpus; it cannot be combined with -load, -snapshot-in, or -fault-profile")
	case o.deltaIn != "":
		return errors.New("-delta-out generates against the pristine corpus; it cannot be combined with -delta-in")
	}
	return nil
}

// run builds the study o asks for, writes the files it names, and prints
// the report, exhibit, list or query result to stdout; progress notes go
// to stderr.
func run(o options, stdout, stderr io.Writer) error {
	if err := check(o); err != nil {
		return err
	}
	cfg := synth.Default2017(o.seed)
	if o.flagship {
		cfg = synth.FlagshipSeries(o.seed)
	} else if o.extended {
		cfg = synth.ExtendedSystems(o.seed)
	}
	var study *repro.Study
	var err error
	switch {
	case o.snapIn != "":
		study, err = repro.OpenSnapshotFile(o.snapIn)
	case o.load != "":
		study, err = repro.Load(o.load)
	case o.faultProfile != "":
		study, err = repro.NewHarvestedStudy(cfg, o.faultProfile, repro.HarvestHooks{})
	case o.deltaOut != "":
		study, err = writeDelta(cfg, o.deltaOut, o.deltaSeries, o.deltaYear)
	default:
		study, err = repro.NewStudyFromConfig(cfg)
	}
	if err != nil {
		return err
	}
	if o.deltaOut != "" {
		fmt.Fprintf(stderr, "delta saved to %s\n", o.deltaOut)
	}
	if o.deltaIn != "" {
		paths := strings.Split(o.deltaIn, ",")
		for _, path := range paths {
			if err := study.ApplyDeltaFile(strings.TrimSpace(path)); err != nil {
				return err
			}
		}
		fmt.Fprintf(stderr, "applied %d delta(s); corpus now has %d conferences\n",
			len(paths), len(study.Dataset().Conferences))
	}
	if o.save != "" {
		if err := study.Save(o.save); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "corpus saved to %s\n", o.save)
	}
	if o.csvOut != "" {
		if err := exportCSVs(o.csvOut, study, stderr); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "exhibit CSVs exported to %s\n", o.csvOut)
	}
	if o.snapOut != "" {
		if err := study.SaveSnapshot(o.snapOut); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "snapshot saved to %s\n", o.snapOut)
	}
	w := bufio.NewWriter(stdout)
	switch {
	case o.querySpec != "":
		if err := runQuery(w, study, o.querySpec); err != nil {
			return err
		}
	case o.list:
		for _, ex := range study.Exhibits() {
			fmt.Fprintf(w, "%-28s %s\n", ex.ID, ex.Title)
		}
	case o.exhibit != "":
		ex, ok := study.Exhibit(o.exhibit)
		if !ok {
			return fmt.Errorf("unknown exhibit %q (use -list to enumerate)", o.exhibit)
		}
		if err := ex.Render(w); err != nil {
			return err
		}
	default:
		if err := study.WriteReport(w); err != nil {
			return err
		}
	}
	return w.Flush()
}

// exportCSVs writes every exhibit family of study into dir as
// <family>.csv, through Study.ExhibitCSV: the bytes whpcd serves at
// /v1/csv/<family>. A family the corpus cannot answer (query.ErrEmpty or
// core.ErrNotApplicable) is named on log and skipped; any other error
// stops the export.
func exportCSVs(dir string, study *repro.Study, log io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating export dir %s: %w", dir, err)
	}
	for _, name := range repro.ExhibitFamilies() {
		b, err := study.ExhibitCSV(name)
		if errors.Is(err, query.ErrEmpty) || errors.Is(err, core.ErrNotApplicable) {
			fmt.Fprintf(log, "skipping %s.csv (not applicable to this corpus: %v)\n", name, err)
			continue
		}
		if err != nil {
			return fmt.Errorf("exporting %s: %w", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), b, 0o666); err != nil {
			return err
		}
	}
	return nil
}

// writeDelta generates the next edition of series against cfg's corpus,
// writes it as a year-delta snapshot, and returns the study of the base
// corpus it generated the edition against, so the base is synthesized once.
func writeDelta(cfg synth.Config, path, series string, year int) (*repro.Study, error) {
	spec, err := synth.YearSpec(cfg, series, year)
	if err != nil {
		return nil, err
	}
	yd, base, err := synth.GenerateYearDelta(cfg, spec)
	if err != nil {
		return nil, err
	}
	if err := delta.WriteFile(path, yd, base.Data); err != nil {
		return nil, err
	}
	return repro.FromDataset(base.Data)
}

// runQuery parses the -query spec (inline JSON, or @file) and writes the
// result in the spec's requested format.
func runQuery(w io.Writer, study *repro.Study, spec string) error {
	raw := []byte(spec)
	if strings.HasPrefix(spec, "@") {
		b, err := os.ReadFile(spec[1:])
		if err != nil {
			return fmt.Errorf("reading query spec: %w", err)
		}
		raw = b
	}
	q, err := query.Parse(raw)
	if err != nil {
		return err
	}
	res, err := study.Query(q)
	if err != nil {
		return err
	}
	body, _, err := res.Encode(q.Format)
	if err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	// JSON results have no trailing newline; keep shell output tidy.
	if len(body) > 0 && body[len(body)-1] != '\n' {
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
