package snap

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/query"
)

// chaosTestSnapshot writes a small valid snapshot (with frames) to a temp
// file and returns its path.
func chaosTestSnapshot(t *testing.T) string {
	t.Helper()
	d := tinyDataset()
	path := filepath.Join(t.TempDir(), "chaos"+FileExt)
	if err := WriteFile(path, Snapshot{Corpus: d, Frames: query.NewFrameSet(d)}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenInjectedTornRead: a torn read (truncated buffer) must be
// rejected as a truncation/checksum failure — typed, never a panic, never
// a silently short corpus.
func TestOpenInjectedTornRead(t *testing.T) {
	path := chaosTestSnapshot(t)
	sched := &chaos.Schedule{Triggers: []chaos.Trigger{
		{Point: chaos.PointSnapRead, Hit: 1, Fault: chaos.Fault{Kind: chaos.KindTorn, TornBytes: 97}},
	}}
	_, err := Open(path, Full, chaos.NewScheduled(sched))
	if err == nil {
		t.Fatal("torn read produced a corpus")
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("torn read error = %v, want *FormatError", err)
	}
	if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn read error = %v, want checksum or truncation", err)
	}
}

// TestOpenInjectedReadError: an error-kind fault at snap.read fails the
// open with a path-carrying injected error.
func TestOpenInjectedReadError(t *testing.T) {
	path := chaosTestSnapshot(t)
	sched := &chaos.Schedule{Triggers: []chaos.Trigger{
		{Point: chaos.PointSnapRead, Hit: 1, Fault: chaos.Fault{Kind: chaos.KindError}},
	}}
	_, err := Open(path, Full, chaos.NewScheduled(sched))
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !errors.Is(err, chaos.ErrInjected) || !containsPath(err, path) {
		t.Fatalf("err %q must carry the file path", err)
	}
}

func containsPath(err error, path string) bool {
	return strings.Contains(err.Error(), path)
}

// TestOpenInjectedDecodeFault: a decode-point fault surfaces as a
// *FormatError naming the section it hit and wrapping chaos.ErrInjected,
// with the file path wrapped around it.
func TestOpenInjectedDecodeFault(t *testing.T) {
	path := chaosTestSnapshot(t)
	// Hit 2 of snap.decode is the conferences section (persons is hit 1).
	sched := &chaos.Schedule{Triggers: []chaos.Trigger{
		{Point: chaos.PointSnapDecode, Hit: 2, Fault: chaos.Fault{Kind: chaos.KindError}},
	}}
	_, err := Open(path, Full, chaos.NewScheduled(sched))
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FormatError", err)
	}
	if fe.Section != SectionConferences {
		t.Fatalf("fault hit section %q, want %q", fe.Section, SectionConferences)
	}
	if !containsPath(err, path) {
		t.Fatalf("err %q must carry the file path", err)
	}
}

// TestOpenInjectedCleanPassthrough: an injector with nothing armed loads
// the identical snapshot the plain path does, and pins the hit ordinals
// the serve chaos schedules are written against: one snap.read, then one
// snap.decode per decoded section.
func TestOpenInjectedCleanPassthrough(t *testing.T) {
	d := tinyDataset()
	info, mini := tinyDeltaMini()
	for _, tc := range []struct {
		name    string
		s       Snapshot
		kind    Kind
		decodes int
	}{
		// persons, conferences, papers, frames
		{"frames", Snapshot{Corpus: d, Frames: query.NewFrameSet(d)}, Full, 4},
		// persons, conferences, papers; the delta identity is not a step
		{"delta", Snapshot{Corpus: mini, Delta: &info}, Delta, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.name+FileExt)
			if err := WriteFile(path, tc.s); err != nil {
				t.Fatal(err)
			}
			inj := chaos.NewScheduled(&chaos.Schedule{})
			got, err := Open(path, tc.kind, inj)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Open(path, tc.kind, nil)
			if err != nil {
				t.Fatal(err)
			}
			if datasetCSV(t, got.Corpus) != datasetCSV(t, plain.Corpus) ||
				(got.Frames == nil) != (tc.s.Frames == nil) ||
				(got.Delta == nil) != (tc.s.Delta == nil) {
				t.Fatal("clean injected open decoded a different snapshot")
			}
			if n := inj.Hits(chaos.PointSnapRead); n != 1 {
				t.Fatalf("snap.read hits = %d, want 1", n)
			}
			if n := inj.Hits(chaos.PointSnapDecode); n != tc.decodes {
				t.Fatalf("snap.decode hits = %d, want %d", n, tc.decodes)
			}
		})
	}
}

// TestOpenMissingFileIsNotExist: the open path preserves fs.ErrNotExist
// so callers (the whpcd quarantine logic) can split "missing" from
// "corrupt".
func TestOpenMissingFileIsNotExist(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "nope"+FileExt), Full, nil)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}
