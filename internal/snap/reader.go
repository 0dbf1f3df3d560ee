package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/query"
)

// reader holds one snapshot that parse has proven whole — magic, format
// version, directory structure, per-section CRC-32s and the whole-file
// checksum — so decode works on authenticated bytes and can attribute
// any remaining failure (a structural impossibility the checksums cannot
// see, e.g. a count disagreement between sections) to a section and
// offset.
type reader struct {
	sections []section
	payloads map[string][]byte
	meta     metaInfo
	inj      chaos.Injector // consulted at snap.decode; chaos.None in production
}

// section is one directory entry.
type section struct {
	name   string
	offset int64 // absolute file offset of the payload
	length int64
	crc32  uint32
}

type metaInfo struct {
	hasFrames                    bool
	isDelta                      bool
	persons, conferences, papers int
}

// knownSections is the set of section names this format version defines;
// anything else fails validation (forward compatibility is handled by the
// version field, not by skipping sections).
var knownSections = map[string]bool{
	SectionMeta:        true,
	SectionPersons:     true,
	SectionConferences: true,
	SectionPapers:      true,
	SectionFrames:      true,
	SectionDelta:       true,
}

// Open reads the snapshot file at path and decodes it as Read does. It is
// the one load path for full and delta snapshots alike.
//
// inj (nil means none) is consulted at the snap.read point once the bytes
// arrive — a torn-read fault truncates the buffer, every other kind fails
// the open typed — and then at snap.decode as Read describes. A missing
// file keeps os.ReadFile's *fs.PathError, so errors.Is(err,
// fs.ErrNotExist) splits "missing" from "corrupt"; every other error is
// wrapped with the path, and decode failures keep their *FormatError
// section context underneath.
func Open(path string, kind Kind, inj chaos.Injector) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	if f := chaos.Or(inj).Fire(chaos.PointSnapRead); f != nil {
		if f.Kind != chaos.KindTorn {
			return Snapshot{}, fmt.Errorf("%s: %w", path, chaos.Injected(chaos.PointSnapRead, f))
		}
		// The tail never arrived; validation must reject the torn prefix
		// like any truncated file.
		data = data[:max(0, len(data)-f.TornBytes)]
	}
	s, err := Read(data, kind, inj)
	if err != nil {
		return Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Read validates data as a complete snapshot of the given kind and
// decodes it. Every integrity check — magic, format version, directory
// structure, per-section CRC-32s, the whole-file checksum, and the
// kind — runs before any section is decoded.
//
// The corpus comes back proven: the decoder checks every invariant
// dataset.Validate checks as it reads, refusing a violation with a
// *FormatError of its section, and hands the dataset its all-conference
// populations, built from bitmaps over the sorted person table.
//
// inj (nil means none) is consulted at the snap.decode point once per
// decoded section: persons, conferences, papers, then frames when
// present. The delta-identity section is not injectable.
func Read(data []byte, kind Kind, inj chaos.Injector) (Snapshot, error) {
	r, err := parse(data, inj)
	if err != nil {
		return Snapshot{}, err
	}
	switch {
	case kind == Delta && !r.meta.isDelta:
		return Snapshot{}, &FormatError{Section: SectionDelta, Msg: "full snapshot where a delta was expected", Err: ErrNoSection}
	case kind != Delta && r.meta.isDelta:
		return Snapshot{}, &FormatError{Section: SectionDelta, Msg: "snapshot is a delta, not a full corpus; open it as Delta and apply it through internal/delta", Err: ErrCorrupt}
	}
	return r.decode()
}

// parse performs Read's validation pass. The slice is retained.
func parse(data []byte, inj chaos.Injector) (*reader, error) {
	if len(data) < headerSize+4 {
		return nil, fileErr(int64(len(data)), fmt.Sprintf("file is %d bytes, shorter than the %d-byte header and checksum trailer", len(data), headerSize+4), ErrTruncated)
	}
	if string(data[:8]) != Magic {
		return nil, fileErr(0, "", ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != FormatVersion {
		return nil, fileErr(8, fmt.Sprintf("file has format version %d, this build supports %d", v, FormatVersion), ErrVersion)
	}
	if rsv := binary.LittleEndian.Uint16(data[10:12]); rsv != 0 {
		return nil, fileErr(10, fmt.Sprintf("reserved header bytes are %#x, want 0", rsv), ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(data[12:16]))
	const minEntry = 1 + 8 + 8 + 4
	if count > (len(data)-headerSize-4)/minEntry {
		return nil, fileErr(12, fmt.Sprintf("directory declares %d sections, more than the file could hold", count), ErrTruncated)
	}

	body := int64(len(data) - 4) // everything before the checksum trailer
	r := &reader{payloads: make(map[string][]byte, count), inj: chaos.Or(inj)}
	off := int64(headerSize)
	for i := 0; i < count; i++ {
		if off >= body {
			return nil, fileErr(off, fmt.Sprintf("directory entry %d starts past the payload region", i), ErrTruncated)
		}
		nameLen := int64(data[off])
		off++
		if off+nameLen+8+8+4 > body {
			return nil, fileErr(off, fmt.Sprintf("directory entry %d overruns the payload region", i), ErrTruncated)
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		secOff := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		secLen := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		secCRC := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if !knownSections[name] {
			return nil, fileErr(off, fmt.Sprintf("directory entry %d names unknown section %q", i, name), ErrCorrupt)
		}
		if _, dup := r.payloads[name]; dup {
			return nil, fileErr(off, fmt.Sprintf("directory repeats section %q", name), ErrCorrupt)
		}
		if secOff < off || secLen < 0 || secOff+secLen > body || secOff+secLen < secOff {
			return nil, fileErr(off, fmt.Sprintf("section %q claims bytes [%d, %d), outside the payload region", name, secOff, secOff+secLen), ErrTruncated)
		}
		r.sections = append(r.sections, section{name: name, offset: secOff, length: secLen, crc32: secCRC})
		r.payloads[name] = data[secOff : secOff+secLen]
	}

	// Per-section checksums first: a bit flip inside a payload is
	// attributed to its section, not reported as a bare file mismatch.
	for _, s := range r.sections {
		if got := crc32.ChecksumIEEE(r.payloads[s.name]); got != s.crc32 {
			return nil, &FormatError{
				Section: s.name,
				Offset:  0,
				Msg:     fmt.Sprintf("payload CRC-32 %#08x does not match directory %#08x", got, s.crc32),
				Err:     ErrChecksum,
			}
		}
	}
	if got, want := crc32.ChecksumIEEE(data[:body]), binary.LittleEndian.Uint32(data[body:]); got != want {
		return nil, fileErr(body, fmt.Sprintf("whole-file CRC-32 %#08x does not match trailer %#08x", got, want), ErrChecksum)
	}

	for _, name := range []string{SectionMeta, SectionPersons, SectionConferences, SectionPapers} {
		if _, ok := r.payloads[name]; !ok {
			return nil, fileErr(int64(headerSize), fmt.Sprintf("directory has no %q section", name), ErrNoSection)
		}
	}
	if err := r.decodeMeta(); err != nil {
		return nil, err
	}
	_, gotFrames := r.payloads[SectionFrames]
	if gotFrames != r.meta.hasFrames {
		return nil, fileErr(int64(headerSize), fmt.Sprintf("meta frames flag %v disagrees with frames section presence %v", r.meta.hasFrames, gotFrames), ErrCorrupt)
	}
	_, gotDelta := r.payloads[SectionDelta]
	if gotDelta != r.meta.isDelta {
		return nil, fileErr(int64(headerSize), fmt.Sprintf("meta delta flag %v disagrees with delta section presence %v", r.meta.isDelta, gotDelta), ErrCorrupt)
	}
	if r.meta.isDelta && r.meta.hasFrames {
		return nil, fileErr(int64(headerSize), "delta snapshot carries a frames section", ErrCorrupt)
	}
	return r, nil
}

func (r *reader) decodeMeta() error {
	dc := newDec(SectionMeta, r.payloads[SectionMeta])
	flags, err := dc.uvarint("flags")
	if err != nil {
		return err
	}
	if flags&^uint64(flagHasFrames|flagIsDelta) != 0 {
		return dc.err("flags", ErrCorrupt, "unknown flag bits %#x", flags)
	}
	r.meta.hasFrames = flags&flagHasFrames != 0
	r.meta.isDelta = flags&flagIsDelta != 0
	counts := [3]*int{&r.meta.persons, &r.meta.conferences, &r.meta.papers}
	names := [3]string{"person count", "conference count", "paper count"}
	for i, dst := range counts {
		v, err := dc.uvarint(names[i])
		if err != nil {
			return err
		}
		if v > uint64(1)<<40 {
			return dc.err(names[i], ErrCorrupt, "%d is implausible", v)
		}
		*dst = int(v)
	}
	return dc.finished()
}

// chaosStep consults the reader's injector before decoding section; any
// armed fault surfaces as a *FormatError naming the section and wrapping
// chaos.ErrInjected, so injected decode failures flow through the same
// typed-error path organic corruption does.
func (r *reader) chaosStep(section string) error {
	if f := r.inj.Fire(chaos.PointSnapDecode); f != nil {
		return &FormatError{Section: section, Msg: "injected fault", Err: chaos.ErrInjected}
	}
	return nil
}

// decode decodes every section parse validated, in a fixed order: the
// delta identity, persons, conferences, papers, frames.
func (r *reader) decode() (Snapshot, error) {
	var s Snapshot
	if r.meta.isDelta {
		info, err := decodeDelta(r.payloads[SectionDelta])
		if err != nil {
			return Snapshot{}, err
		}
		s.Delta = &info
	}
	// The frames section decodes concurrently with the corpus: the two
	// payloads are independent and together dominate warm-boot latency.
	// decodeFrames is a pure function of its payload; the frames chaos
	// step still fires on this goroutine after the corpus steps, so a
	// scheduled injector sees the exact hit ordinals of a sequential
	// decode.
	payload, hasFrames := r.payloads[SectionFrames]
	var (
		frames []query.FrameData
		fsErr  error
	)
	done := make(chan struct{})
	if hasFrames {
		go func() {
			defer close(done)
			frames, fsErr = decodeFrames(payload)
		}()
	} else {
		close(done)
	}
	d, err := r.corpus()
	if err == nil && hasFrames {
		err = r.chaosStep(SectionFrames)
	}
	<-done
	if err != nil {
		return Snapshot{}, err
	}
	if fsErr != nil {
		return Snapshot{}, fsErr
	}
	s.Corpus = d
	if hasFrames {
		// With both sections decoded, the frames' shape is proven against
		// the schema and the corpus, once, here.
		if s.Frames, err = query.FrameSetOf(d, frames); err != nil {
			return Snapshot{}, &FormatError{Section: SectionFrames, Offset: int64(len(payload)), Msg: err.Error(), Err: ErrCorrupt}
		}
	}
	return s, nil
}

// corpus decodes the three entity sections into a dataset whose every
// invariant the decoders proved, with its all-conference populations.
func (r *reader) corpus() (*dataset.Dataset, error) {
	c := newCorpusDecoder()
	if err := r.chaosStep(SectionPersons); err != nil {
		return nil, err
	}
	if err := c.persons(r.payloads[SectionPersons], r.meta.persons); err != nil {
		return nil, err
	}
	if err := r.chaosStep(SectionConferences); err != nil {
		return nil, err
	}
	if err := c.conferences(r.payloads[SectionConferences], r.meta.conferences); err != nil {
		return nil, err
	}
	if err := r.chaosStep(SectionPapers); err != nil {
		return nil, err
	}
	if err := c.papers(r.payloads[SectionPapers], r.meta.papers); err != nil {
		return nil, err
	}
	c.adoptPopulations()
	return c.d, nil
}
