// Package snap implements the .whpcsnap binary snapshot format: a
// versioned, checksummed, columnar serialization of a full corpus and
// (optionally) its pre-built columnar query frames. It is the binary
// analog of the paper's frozen-CSV artifact (github.com/eitanf/sysconf):
// instead of re-synthesizing and re-linking the corpus on every cold
// start, a daemon or CLI run reloads the frozen bytes and resumes in
// I/O-bound time.
//
// # Layout
//
//	magic "WHPCSNAP" (8 bytes)
//	format version   (uint16 LE)
//	reserved         (uint16 LE, zero)
//	section count    (uint32 LE)
//	directory        (per section: name, offset, length, CRC-32)
//	section payloads (concatenated, in directory order)
//	file checksum    (uint32 LE: CRC-32 of every preceding byte)
//
// Section payloads use dictionary-encoded strings, zigzag-varint integer
// columns, fixed 64-bit float columns, and bitmap validity/boolean
// columns. Every section carries its own CRC-32 in the directory, so a
// bit flip is attributed to the section it corrupted; the trailing
// whole-file checksum catches damage to the header or directory itself.
//
// # Guarantees
//
// Write and WriteFile serialize a Snapshot; Open and Read return one,
// given the Kind the caller expects. Writing is deterministic: the same
// corpus always serializes to byte-identical snapshots. Reading validates the magic, version, every
// section CRC, the file checksum, and all structural invariants
// (dictionary code ranges, column lengths, bitmap sizes, and the frames'
// shape against the frame schema and the corpus) before any value is
// handed out, and proves every invariant dataset.Validate checks of the
// decoded corpus, whose all-conference populations it builds on the way;
// truncated, bit-flipped, inconsistent or future-version inputs
// return a *FormatError naming the failing section and byte offset, and
// never panic. A corpus loaded from a snapshot is proven byte-identical
// to the freshly generated one at the report level (see the round-trip
// tests at the module root).
package snap

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/query"
)

// Magic identifies a .whpcsnap file; it is the first 8 bytes.
const Magic = "WHPCSNAP"

// FormatVersion is the current snapshot format version. Readers reject
// files with a newer version (forward compatibility is not promised);
// older versions are rejected too until a migration path exists. Version
// 2 dropped version 1's optional citation-graph section: the graph lives
// in the frames section's citations frame. Version 3 stores the person and
// paper IDs of the frames section once, in one value table per entity,
// and each column drawing from one as positions into it.
const FormatVersion = 3

// FileExt is the conventional file extension for snapshot files.
const FileExt = ".whpcsnap"

// Section names. The corpus sections are always present; frames is
// optional (snapshots may carry the raw corpus only).
const (
	SectionMeta        = "meta"
	SectionPersons     = "persons"
	SectionConferences = "conferences"
	SectionPapers      = "papers"
	SectionFrames      = "frames"
)

// Sentinel errors, matchable with errors.Is through the *FormatError
// wrapper.
var (
	// ErrBadMagic means the input does not start with the WHPCSNAP magic.
	ErrBadMagic = errors.New("not a whpcsnap file (bad magic)")
	// ErrVersion means the file's format version is not FormatVersion.
	ErrVersion = errors.New("unsupported snapshot format version")
	// ErrChecksum means a CRC-32 mismatch (section or whole-file).
	ErrChecksum = errors.New("checksum mismatch")
	// ErrTruncated means the input ended before a declared structure.
	ErrTruncated = errors.New("truncated input")
	// ErrCorrupt means a structural invariant was violated (impossible
	// length, dictionary code out of range, unknown column type, ...).
	ErrCorrupt = errors.New("corrupt snapshot")
	// ErrNoSection means a required section is missing from the directory.
	ErrNoSection = errors.New("missing section")
)

// FormatError is the structured decode error: it names the section being
// decoded ("" for file-level structures like the header or directory),
// the byte offset the failure was detected at (relative to the section
// payload, or to the file for file-level errors), and wraps one of the
// sentinel errors above.
type FormatError struct {
	Section string // "" for file-level errors
	Offset  int64  // byte offset within the section (or file)
	Msg     string // human context, e.g. `frame "slots" column "person" codes: declares 64, want 65`
	Err     error  // sentinel cause (ErrTruncated, ErrCorrupt, ...)
}

// Error renders "snap: section "persons" at offset 123: ...".
func (e *FormatError) Error() string {
	where := "file"
	if e.Section != "" {
		where = fmt.Sprintf("section %q", e.Section)
	}
	if e.Msg == "" {
		return fmt.Sprintf("snap: %s at offset %d: %v", where, e.Offset, e.Err)
	}
	return fmt.Sprintf("snap: %s at offset %d: %s: %v", where, e.Offset, e.Msg, e.Err)
}

// Unwrap exposes the sentinel cause to errors.Is.
func (e *FormatError) Unwrap() error { return e.Err }

// fileErr builds a file-level FormatError.
func fileErr(offset int64, msg string, cause error) *FormatError {
	return &FormatError{Offset: offset, Msg: msg, Err: cause}
}

// Snapshot is the content of one .whpcsnap file. Write serializes it;
// Open and Read return it. A nil field means the section is absent.
type Snapshot struct {
	// Corpus is the full corpus, or a delta's self-contained mini-corpus.
	// Always present.
	Corpus *dataset.Dataset
	// Frames is the pre-built columnar FrameSet (full snapshots only).
	Frames *query.FrameSet
	// Delta is non-nil exactly when the snapshot is a delta: one
	// conference-year's contribution to the base corpus it identifies.
	Delta *DeltaInfo
}

// Kind is the snapshot kind a caller expects Open or Read to find. The
// two kinds are mutually unreadable: asking for one and finding the other
// is a *FormatError naming the delta section.
type Kind uint8

const (
	// Full is a complete corpus, optionally with frames.
	Full Kind = iota
	// Delta is one conference-year appended to a base corpus.
	Delta
)

// CorpusFileName is the naming convention the whpcd warm-boot path looks
// up inside its -snapshot-dir: one file per (corpus, seed) study key,
// e.g. "default-2021.whpcsnap". Harvested (fault-profile) studies are
// never served from snapshots — a snapshot freezes data, not services.
func CorpusFileName(corpus string, seed uint64) string {
	return fmt.Sprintf("%s-%d%s", corpus, seed, FileExt)
}

// Lineage identifies the inputs a study was materialized from: the base
// snapshot file it was read from (by the file's whole-file CRC-32), or a
// base synthesized in memory, and then, per applied year delta in apply
// order, the delta's file name and whole-file CRC-32. Checksums are read
// from each file's 4-byte trailer without decoding. Adding, replacing or
// removing a delta, or replacing the base, changes the lineage. The zero
// value is not a lineage; start one with BaseLineage or
// SynthesizedLineage.
type Lineage struct {
	b []byte
}

// BaseLineage starts the lineage of a study read from the base snapshot
// file at path.
func BaseLineage(path string) (Lineage, error) {
	crc, err := fileChecksum(path)
	if err != nil {
		return Lineage{}, err
	}
	return Lineage{b: binary.LittleEndian.AppendUint32(nil, crc)}, nil
}

// SynthesizedLineage starts the lineage of a study whose base was
// synthesized rather than read from a snapshot file.
func SynthesizedLineage() Lineage {
	return Lineage{b: []byte("synthesized\x00")}
}

// WithDelta returns the lineage extended by the year delta file at path.
// l itself is unchanged.
func (l Lineage) WithDelta(path string) (Lineage, error) {
	crc, err := fileChecksum(path)
	if err != nil {
		return l, err
	}
	b := append(append(l.b[:len(l.b):len(l.b)], filepath.Base(path)...), 0)
	return Lineage{b: binary.LittleEndian.AppendUint32(b, crc)}, nil
}

// String returns the lineage as 16 hex digits, a prefix of the SHA-256 of
// its inputs.
func (l Lineage) String() string {
	sum := sha256.Sum256(l.b)
	return hex.EncodeToString(sum[:8])
}

// CompactFileName names the compacted snapshot of a base snapshot file
// grown by year delta files: the full snapshot of the study the base
// becomes once every delta is applied, written by whpcd beside them as
// "<corpus>-<seed>.compact-<lineage>.whpcsnap", lineage being the grown
// study's (BaseLineage of the base, WithDelta of each delta). So a
// compacted file is never opened for inputs other than the ones it was
// built from. The name matches neither CorpusFileName nor
// DeltaFilePattern.
func CompactFileName(corpus string, seed uint64, lineage Lineage) string {
	return fmt.Sprintf("%s-%d.compact-%s%s", corpus, seed, lineage, FileExt)
}

// CompactFilePattern is the glob matching every compacted snapshot of one
// (corpus, seed) base, whatever its lineage.
func CompactFilePattern(corpus string, seed uint64) string {
	return fmt.Sprintf("%s-%d.compact-*%s", corpus, seed, FileExt)
}

// fileChecksum reads a snapshot file's trailing whole-file CRC-32 without
// reading or verifying the rest of the file.
func fileChecksum(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	var tail [4]byte
	info, err := f.Stat()
	switch {
	case err != nil:
	case info.Size() < headerSize+4:
		err = fmt.Errorf("%s: %w", path, fileErr(info.Size(), "file is shorter than the header and checksum trailer", ErrTruncated))
	default:
		if _, rerr := f.ReadAt(tail[:], info.Size()-4); rerr != nil {
			err = fmt.Errorf("%s: reading checksum trailer: %w", path, rerr)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return binary.LittleEndian.Uint32(tail[:]), err
}
