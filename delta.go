package repro

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/delta"
	"repro/internal/snap"
)

// ApplyDeltaFile opens the delta snapshot at path — one conference-year
// packed by internal/delta (the whpc -delta-out path) — and appends it to
// the study in place: the mini-corpus merges into the dataset and, when
// the columnar FrameSet has already been built, every frame is patched
// incrementally (dict columns extended, rows appended, bitmaps grown)
// instead of rebuilt, so the apply costs O(new rows). The resulting study
// is byte-identical — at report, exhibit-query, and trend level — to one
// synthesized from scratch with the extra year in its calibration (proven
// by the delta identity suite).
//
// The apply is atomic without a copy: delta.Apply runs every check before
// its first write, so on any error the study is unchanged. Its corpus
// rules alone decide whether a delta is accepted, so that does not depend
// on whether the frames were built; frames opened from a snapshot had
// their shape proven by the decoder. The study's dataset (the one Dataset
// returns) grows in place, and exhibits read it at render time, so nothing
// else needs invalidating. A delta must not be applied concurrently with
// queries or report rendering on the same study; the serve layer applies
// deltas at materialization time, before a study is published to request
// handlers, and the CLI before any analysis.
func (s *Study) ApplyDeltaFile(path string) error {
	return s.ApplyDeltaFileInjected(path, nil)
}

// ApplyDeltaFileInjected is ApplyDeltaFile with a chaos injector threaded
// through both the snapshot read/decode layers (snap.read, snap.decode)
// and the apply itself (delta.apply). A torn or corrupt delta file fails
// validation inside snap before the apply runs, and an injected apply
// fault fires before any check, so neither can leave the base study
// half-patched.
func (s *Study) ApplyDeltaFileInjected(path string, inj chaos.Injector) error {
	sn, err := snap.Open(path, snap.Delta, inj)
	if err != nil {
		return err
	}
	return s.applyDelta(*sn.Delta, sn.Corpus, inj)
}

func (s *Study) applyDelta(info snap.DeltaInfo, mini *dataset.Dataset, inj chaos.Injector) error {
	if s.harvest != nil {
		return fmt.Errorf("repro: cannot apply a delta to a harvested study (its records reflect degraded harvest coverage, not the pristine base the delta extends)")
	}
	if err := delta.Apply(s.data, s.frames, info, mini, inj); err != nil {
		return err
	}
	s.scID = findSC(s.data)
	return nil
}
