package repro

import (
	"repro/internal/chaos"
	"repro/internal/snap"
)

// SaveSnapshot serializes the study's corpus and its columnar FrameSet
// (built first if it has not been yet; its citations frame carries the
// citation graph) into the binary .whpcsnap format at path, atomically and
// durably: a crash mid-write never leaves a partial file behind. A study
// opened from the snapshot produces byte-identical reports and query
// results (see TestSnapshotRoundTripReport).
func (s *Study) SaveSnapshot(path string) error {
	return snap.WriteFile(path, s.snapshot())
}

func (s *Study) snapshot() snap.Snapshot {
	return snap.Snapshot{Corpus: s.data, Frames: s.Frames()}
}

// OpenSnapshotFile reads a snapshot file written by SaveSnapshot. The
// snapshot is fully validated (checksums, format version, structural
// invariants, and every corpus invariant dataset.Validate checks, proven
// by the decoder as it reads) before a Study is returned, and the study's
// author and PC-member populations come built by the decoder. Errors
// carry the file path, and decode failures keep their *FormatError
// section context underneath.
func OpenSnapshotFile(path string) (*Study, error) {
	return OpenSnapshotFileInjected(path, nil)
}

// OpenSnapshotFileInjected is OpenSnapshotFile with a chaos injector (nil
// means none) threaded through the read (snap.read) and section-decode
// (snap.decode) layers; the chaos suite uses it to prove the warm-boot
// path degrades to synthesis, never to a wrong answer, under torn reads
// and injected decode faults.
func OpenSnapshotFileInjected(path string, inj chaos.Injector) (*Study, error) {
	sn, err := snap.Open(path, snap.Full, inj)
	if err != nil {
		return nil, err
	}
	return studyFromSnapshot(sn), nil
}

func studyFromSnapshot(sn snap.Snapshot) *Study {
	s := &Study{data: sn.Corpus, scID: findSC(sn.Corpus)}
	if sn.Frames != nil {
		// Install the deserialized FrameSet where the lazy builder would
		// have put it; Frames() then returns it without rebuilding.
		s.framesOnce.Do(func() { s.frames = sn.Frames })
	}
	return s
}
