package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// FuzzReader: arbitrary byte streams must never panic Read, asked for
// either kind. Every header, directory, checksum, kind or section-decode
// rejection is a structured *FormatError; the one other rejection is the
// decoded corpus's referential check (dataset.ErrInvalid), which runs
// only after every section decoded cleanly. Seeds cover a valid snapshot
// (with and without frames), a delta snapshot, their prefixes, version-1
// and version-2 files, garbage, and a checksum-valid snapshot whose frames
// decode whole but have the wrong shape.
func FuzzReader(f *testing.F) {
	d := tinyDataset()
	info, mini := tinyDeltaMini()
	var plain, withFrames, asDelta bytes.Buffer
	for _, w := range []struct {
		buf *bytes.Buffer
		s   Snapshot
	}{
		{&plain, Snapshot{Corpus: d}},
		{&withFrames, Snapshot{Corpus: d, Frames: query.NewFrameSet(d)}},
		{&asDelta, Snapshot{Corpus: mini, Delta: &info}},
	} {
		if err := Write(w.buf, w.s); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(plain.Bytes())
	f.Add(withFrames.Bytes())
	f.Add(asDelta.Bytes())
	f.Add(plain.Bytes()[:len(plain.Bytes())/2])
	f.Add(asDelta.Bytes()[:len(asDelta.Bytes())/2])
	f.Add(withFrames.Bytes()[:len(withFrames.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte("WHPCSNAP\x03\x00\x00\x00\xff\xff\xff\xff"))
	f.Add([]byte("\x00\xff\xfe garbage"))
	// A version-1 file, which may carry the citations section version 2
	// dropped, and a version-2 file, whose frames section has no entity
	// tables.
	for _, v := range []uint16{1, 2} {
		old := bytes.Clone(withFrames.Bytes())
		binary.LittleEndian.PutUint16(old[8:10], v)
		f.Add(old)
	}
	f.Add(withFramesSection(f, d, shapeCases[0].reshape(decodedFrames(f, d))))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []Kind{Full, Delta} {
			_, err := Read(data, kind, nil)
			var fe *FormatError
			if err != nil && !errors.As(err, &fe) && !errors.Is(err, dataset.ErrInvalid) {
				t.Fatalf("Read(kind %d) rejection %v (%T) is neither a *FormatError nor a corpus validation failure", kind, err, err)
			}
		}
	})
}
