package repro

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/chaos"
	"repro/internal/snap"
)

// WriteSnapshot serializes the study's corpus, its columnar FrameSet, and
// its citation graph (each built first if it has not been yet) into the
// binary .whpcsnap format. A study opened from the snapshot produces
// byte-identical reports and query results (see
// TestSnapshotRoundTripReport).
func (s *Study) WriteSnapshot(w io.Writer) error {
	return snap.Write(w, s.snapshot())
}

// SaveSnapshot writes the snapshot atomically and durably to path; a
// crash mid-write never leaves a partial file behind.
func (s *Study) SaveSnapshot(path string) error {
	return snap.WriteFile(path, s.snapshot())
}

func (s *Study) snapshot() snap.Snapshot {
	return snap.Snapshot{Corpus: s.data, Frames: s.Frames(), Citations: s.CitationGraph()}
}

// OpenSnapshot reads a snapshot written by WriteSnapshot from r. The
// snapshot is fully validated (checksums, format version, structural
// invariants, dataset referential integrity) before a Study is returned.
func OpenSnapshot(r io.Reader) (*Study, error) {
	var buf bytes.Buffer
	// Size hint (bytes.Reader, bytes.Buffer, strings.Reader) avoids the
	// doubling-regrowth copies that io.ReadAll would pay on a large file.
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + 1)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("repro: reading snapshot: %w", err)
	}
	sn, err := snap.Read(buf.Bytes(), snap.Full, nil)
	if err != nil {
		return nil, err
	}
	return studyFromSnapshot(sn), nil
}

// OpenSnapshotFile reads a snapshot file written by SaveSnapshot. Errors
// carry the file path, and decode failures keep their *FormatError
// section context underneath.
func OpenSnapshotFile(path string) (*Study, error) {
	return OpenCompactedSnapshotFile(path, 0, nil)
}

// OpenCompactedSnapshotFile is OpenSnapshotFile for a snapshot written
// after the study had absorbed deltas year deltas — a base snapshot and
// its deltas compacted into one file (see snap.CompactFileName) — so the
// study reports Revision() == deltas, exactly as the base with those
// deltas applied would. The file's bytes cannot carry the revision: a
// compacted snapshot is byte-identical to one of the same corpus
// synthesized in one go. The serve layer keys its exhibit cache on the
// revision, so a compacted study at revision 0 could be served renders
// cached for the pre-delta base of the same key.
//
// inj (nil means none) is threaded through the read (snap.read) and
// section-decode (snap.decode) layers; the chaos suite uses it to prove
// the warm-boot path degrades to synthesis, never to a wrong answer,
// under torn reads and injected decode faults.
func OpenCompactedSnapshotFile(path string, deltas uint64, inj chaos.Injector) (*Study, error) {
	sn, err := snap.Open(path, snap.Full, inj)
	if err != nil {
		return nil, err
	}
	st := studyFromSnapshot(sn)
	st.revision = deltas
	return st, nil
}

func studyFromSnapshot(sn snap.Snapshot) *Study {
	s := &Study{data: sn.Corpus, scID: findSC(sn.Corpus)}
	if sn.Frames != nil {
		// Install the deserialized FrameSet where the lazy builder would
		// have put it; Frames() then returns it without rebuilding.
		s.framesOnce.Do(func() { s.frames = sn.Frames })
	}
	// Likewise for the citation graph; snapshots written before the
	// citations section existed leave it nil and CitationGraph
	// resynthesizes (deterministically identical).
	s.citeGraph = sn.Citations
	return s
}
