package snap

import "fmt"

// Delta snapshots reuse the whole .whpcsnap container discipline — magic,
// format version, section directory, per-section CRC-32s and the
// whole-file trailer — to carry one conference-year's contribution instead
// of a full corpus. The standard persons/conferences/papers sections hold
// a self-contained mini-corpus (the appended conference, its papers, and
// the full records of every participant, reused or new), and a "delta"
// section records the edition's year, its conference ID, and a fingerprint
// of the base corpus the delta extends. The meta flag bit flagIsDelta
// keeps the two file kinds mutually unreadable: a full-snapshot reader
// built before this flag existed rejects delta files as corrupt rather
// than loading a nine-conference study with one conference in it, and
// Open/Read here refuse the kind the caller did not ask for, both ways.

// SectionDelta is the delta-identity section of a delta snapshot.
const SectionDelta = "delta"

// DeltaInfo identifies what a delta snapshot appends and which base corpus
// it applies to.
type DeltaInfo struct {
	// Year is the conference edition's year.
	Year int
	// ConfID is the appended conference's ID (e.g. "SC21").
	ConfID string
	// BaseFingerprint is the fingerprint of the base corpus the delta was
	// generated against (internal/delta computes and verifies it); applying
	// a delta to any other corpus is rejected before a single row moves.
	BaseFingerprint uint64
}

func encodeDelta(info DeltaInfo) []byte {
	e := &enc{}
	e.uvarint(uint64(info.Year))
	e.str(info.ConfID)
	e.uvarint(info.BaseFingerprint)
	return e.bytesOut()
}

func decodeDelta(data []byte) (DeltaInfo, error) {
	dc := newDec(SectionDelta, data)
	var info DeltaInfo
	year, err := dc.uvarint("year")
	if err != nil {
		return info, err
	}
	if year > 1<<20 {
		return info, dc.err("year", ErrCorrupt, "%d is implausible", year)
	}
	info.Year = int(year)
	if info.ConfID, err = dc.str("conference ID"); err != nil {
		return info, err
	}
	if info.ConfID == "" {
		return info, dc.err("conference ID", ErrCorrupt, "empty")
	}
	if info.BaseFingerprint, err = dc.uvarint("base fingerprint"); err != nil {
		return info, err
	}
	if err := dc.finished(); err != nil {
		return info, err
	}
	return info, nil
}

// DeltaFileName is the naming convention for delta files alongside their
// base snapshot: the base corpus's CorpusFileName stem plus the appended
// year, e.g. "default-2021.delta-2021.whpcsnap". The whpcd snapshot-dir
// scan applies deltas in ascending year order after loading the base.
func DeltaFileName(corpus string, seed uint64, year int) string {
	return fmt.Sprintf("%s-%d.delta-%d%s", corpus, seed, year, FileExt)
}

// DeltaFilePattern is the glob matching every delta file of one base
// snapshot, for the snapshot-dir scan.
func DeltaFilePattern(corpus string, seed uint64) string {
	return fmt.Sprintf("%s-%d.delta-*%s", corpus, seed, FileExt)
}
