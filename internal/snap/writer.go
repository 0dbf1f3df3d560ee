package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

type wsection struct {
	name    string
	payload []byte
}

// Write validates s and emits it to w as one snapshot: header, section
// directory, payloads, and the whole-file CRC-32 trailer. Encoding is
// deterministic: person rows are sorted by ID, everything else follows
// the dataset's slice order. The corpus is required; a delta snapshot
// (s.Delta non-nil) carries no frames, since the base study's frames are
// patched in place on apply.
func Write(w io.Writer, s Snapshot) error {
	d := s.Corpus
	if d == nil {
		return fmt.Errorf("snap: nil dataset")
	}
	var flags uint64
	var sections []wsection
	if s.Delta != nil {
		switch {
		case s.Frames != nil:
			return fmt.Errorf("snap: delta snapshots cannot carry frames")
		case s.Delta.ConfID == "":
			return fmt.Errorf("snap: delta conference ID is empty")
		}
		flags |= flagIsDelta
		sections = append(sections, wsection{SectionDelta, encodeDelta(*s.Delta)})
	}

	ids := sortedPersonIDs(d)
	personIdx := make(map[string]int, len(ids))
	for i, id := range ids {
		personIdx[id] = i
	}
	sections = append(sections,
		wsection{SectionPersons, encodePersons(d, ids)},
		wsection{SectionConferences, encodeConferences(d, personIdx)},
		wsection{SectionPapers, encodePapers(d, personIdx)},
	)
	if s.Frames != nil {
		flags |= flagHasFrames
		sections = append(sections, wsection{SectionFrames, encodeFrames(s.Frames.Data())})
	}
	return emit(w, flags, [3]int{len(d.Persons), len(d.Conferences), len(d.Papers)}, sections)
}

// emit writes the container around already-encoded sections: the meta
// section (flags and the persons/conferences/papers counts) first, then
// sections in the given order.
func emit(w io.Writer, flags uint64, counts [3]int, sections []wsection) error {
	meta := &enc{}
	meta.uvarint(flags)
	for _, n := range counts {
		meta.uvarint(uint64(n))
	}
	sections = append([]wsection{{SectionMeta, meta.bytesOut()}}, sections...)

	// Directory size depends only on the (fixed-size) entries.
	dirSize := 0
	for _, s := range sections {
		dirSize += 1 + len(s.name) + 8 + 8 + 4
	}
	offset := int64(headerSize + dirSize)

	var head []byte
	head = append(head, Magic...)
	head = binary.LittleEndian.AppendUint16(head, FormatVersion)
	head = binary.LittleEndian.AppendUint16(head, 0) // reserved
	head = binary.LittleEndian.AppendUint32(head, uint32(len(sections)))
	for _, s := range sections {
		head = append(head, byte(len(s.name)))
		head = append(head, s.name...)
		head = binary.LittleEndian.AppendUint64(head, uint64(offset))
		head = binary.LittleEndian.AppendUint64(head, uint64(len(s.payload)))
		head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(s.payload))
		offset += int64(len(s.payload))
	}

	sum := crc32.NewIEEE()
	out := io.MultiWriter(w, sum)
	if _, err := out.Write(head); err != nil {
		return fmt.Errorf("snap: writing header: %w", err)
	}
	for _, s := range sections {
		if _, err := out.Write(s.payload); err != nil {
			return fmt.Errorf("snap: writing section %q: %w", s.name, err)
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum.Sum32())
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("snap: writing checksum trailer: %w", err)
	}
	return nil
}

// WriteFile writes s to path atomically and durably: the bytes land in a
// temporary sibling, are fsynced, and only then renamed into place, so
// neither a crash mid-write nor one right after the rename can leave a
// short snapshot at path for a warm-boot path to trip over.
func WriteFile(path string, s Snapshot) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		//whpcvet:ignore errcheck best-effort cleanup of the temp file on the error paths; the success path renamed it away
		os.Remove(tmp.Name())
	}()
	if err := Write(tmp, s); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

const (
	headerSize    = 16 // magic(8) + version(2) + reserved(2) + section count(4)
	flagHasFrames = 1 << 0
	flagIsDelta   = 1 << 1 // delta snapshot: one conference-year, no frames
)
