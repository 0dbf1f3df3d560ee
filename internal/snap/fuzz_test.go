package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/query"
)

// FuzzReader: arbitrary byte streams must never panic Read, asked for
// either kind, and every rejection — header, directory, checksum, kind,
// section decode or corpus invariant — is a structured *FormatError.
// Seeds cover a valid snapshot
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
			if err != nil && !errors.As(err, &fe) {
				t.Fatalf("Read(kind %d) rejection %v (%T) is not a *FormatError", kind, err, err)
			}
		}
	})
}

// FuzzSections: arbitrary payload bytes handed straight to each section
// decoder — past the checksums that keep FuzzReader's mutations out of
// them — must never panic it, and every refusal is a *FormatError naming
// the decoder's own section. Each input is decoded as the persons,
// conferences and papers of both the tiny corpus and the tiny delta's
// mini-corpus (their counts, and the sections decoded before), as frames,
// and as a delta identity. Seeds are the sections of the tiny snapshot
// with frames and of the tiny delta.
func FuzzSections(f *testing.F) {
	var corpora []*reader
	for _, data := range [][]byte{tinySnapshot(f, true), tinyDeltaSnapshot(f)} {
		r, err := parse(data, nil)
		if err != nil {
			f.Fatal(err)
		}
		corpora = append(corpora, r)
		for _, s := range r.sections {
			if s.name != SectionMeta {
				f.Add(r.payloads[s.name])
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(section string, err error) {
			var fe *FormatError
			if err != nil && (!errors.As(err, &fe) || fe.Section != section) {
				t.Fatalf("%s decoder refused with %v (%T), not a *FormatError naming its section", section, err, err)
			}
		}
		for _, r := range corpora {
			check(SectionPersons, newCorpusDecoder().persons(data, r.meta.persons))
			check(SectionConferences, decoderThrough(t, r, SectionPersons).conferences(data, r.meta.conferences))
			check(SectionPapers, decoderThrough(t, r, SectionConferences).papers(data, r.meta.papers))
		}
		_, err := decodeFrames(data)
		check(SectionFrames, err)
		_, err = decodeDelta(data)
		check(SectionDelta, err)
	})
}

// decoderThrough returns a corpus decoder that has decoded r's entity
// sections up to and including last, in decode order.
func decoderThrough(t testing.TB, r *reader, last string) *corpusDecoder {
	t.Helper()
	c := newCorpusDecoder()
	steps := []struct {
		name   string
		decode func([]byte, int) error
		want   int
	}{
		{SectionPersons, c.persons, r.meta.persons},
		{SectionConferences, c.conferences, r.meta.conferences},
		{SectionPapers, c.papers, r.meta.papers},
	}
	for _, s := range steps {
		if err := s.decode(r.payloads[s.name], s.want); err != nil {
			t.Fatal(err)
		}
		if s.name == last {
			break
		}
	}
	return c
}
