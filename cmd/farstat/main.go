// Command farstat computes headline gender-gap statistics for a corpus
// stored as CSV files (the synthgen/whpc -save format) or as a binary
// snapshot (the synthgen -snap / whpc -snapshot-out format): overall and
// per-conference female author ratio, per-role representation, and the
// PC-vs-author gap. Use it to analyze corpora you assembled yourself.
//
// Usage:
//
//	farstat -dir DIR [-json]
//	farstat -snap FILE [-delta FILES] [-json]
//
// -delta applies year-delta snapshots (synthgen -delta-year) to the loaded
// corpus before computing, comma-separated and in order. The statistics of
// a base-plus-delta corpus are byte-identical to those of a corpus rebuilt
// with the extra year from the start.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/dataset"
	"repro/internal/report"
)

// summary is the machine-readable output of farstat -json.
type summary struct {
	Conferences int                `json:"conferences"`
	Papers      int                `json:"papers"`
	Researchers int                `json:"researchers"`
	AuthorSlots int                `json:"author_slots"`
	OverallFAR  float64            `json:"overall_far"`
	PerConfFAR  map[string]float64 `json:"per_conference_far"`
	PCRatio     float64            `json:"pc_women_ratio"`
	PCvsAuthorP float64            `json:"pc_vs_author_p"`
}

func main() {
	dir := flag.String("dir", "", "corpus CSV directory")
	snapIn := flag.String("snap", "", "corpus binary snapshot file")
	deltaIn := flag.String("delta", "", "apply year-delta snapshots before computing (comma-separated files, in order)")
	asJSON := flag.Bool("json", false, "emit JSON instead of text")
	full := flag.Bool("full", false, "also print role, geography, sector and citation-flow breakdowns")
	flag.Parse()
	if (*dir == "") == (*snapIn == "") {
		fmt.Fprintln(os.Stderr, "farstat: exactly one of -dir or -snap is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *dir, *snapIn, *deltaIn, *asJSON, *full); err != nil {
		fmt.Fprintln(os.Stderr, "farstat:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, dir, snapIn, deltaIn string, asJSON, full bool) error {
	var study *repro.Study
	var err error
	if snapIn != "" {
		study, err = repro.OpenSnapshotFile(snapIn)
	} else {
		study, err = repro.Load(dir)
	}
	if err != nil {
		return err
	}
	if deltaIn != "" {
		for _, path := range strings.Split(deltaIn, ",") {
			if err := study.ApplyDeltaFile(strings.TrimSpace(path)); err != nil {
				return err
			}
		}
	}
	d := study.Dataset()
	far := study.FAR()
	pc, err := study.PC()
	if err != nil {
		return err
	}
	s := summary{
		Conferences: len(d.Conferences),
		Papers:      len(d.Papers),
		Researchers: len(d.Persons),
		AuthorSlots: far.TotalSlots,
		OverallFAR:  far.Overall.Ratio(),
		PerConfFAR:  map[string]float64{},
		PCRatio:     pc.Overall.Ratio(),
		PCvsAuthorP: pc.VsAuthors.P,
	}
	for _, row := range far.PerConf {
		s.PerConfFAR[string(row.Conf)] = row.Ratio.Ratio()
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	}
	fmt.Fprintf(w, "corpus: %d conferences, %d papers, %d researchers\n",
		s.Conferences, s.Papers, s.Researchers)
	fmt.Fprintf(w, "female author ratio: %.2f%% over %d author slots\n",
		100*s.OverallFAR, s.AuthorSlots)
	for _, c := range d.Conferences {
		id := dataset.ConfID(c.ID)
		fmt.Fprintf(w, "  %-10s %.2f%%\n", c.Name, 100*s.PerConfFAR[string(id)])
	}
	fmt.Fprintf(w, "PC women ratio: %.2f%% (vs authors: p = %.4g)\n", 100*s.PCRatio, s.PCvsAuthorP)
	if !full {
		return nil
	}
	fmt.Fprintln(w)
	if err := report.Fig1(w, d); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Table2(w, d); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Table3(w, d); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Fig8(w, d); err != nil {
		return err
	}
	fmt.Fprintln(w)
	flow, err := study.CitationFlow()
	if err != nil {
		return err
	}
	return report.CitationFlow(w, flow, len(d.Papers))
}
