package snap

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/query"
)

// dec is a bounds-checked reader over one section payload. Every method
// returns a *FormatError carrying the section name and the offset the
// failure was detected at; nothing in this file panics on any input, and
// declared lengths are validated against the remaining bytes before
// allocation so hostile inputs cannot force huge allocations.
//
// The field name every method takes is a constant, and in holds what the
// read is inside, as strings the decoder already decoded: err formats the
// two into a message only when it builds one, so a read that succeeds
// formats nothing.
type dec struct {
	section string
	data    []byte
	off     int
	in      scope
}

// scope names the entity table, frame and column, or conference a read is
// inside; an empty name is left out of the message.
type scope struct{ table, frame, column, conf string }

// anyCount is the count a reader accepts for a list whose length is its
// own (a dictionary, a roster, the frames), not a row count fixed
// elsewhere.
const anyCount = -1

func newDec(section string, data []byte) *dec {
	return &dec{section: section, data: data}
}

// err builds a FormatError at the current offset naming field within
// d.in; format and args, when format is not empty, say what is wrong.
func (d *dec) err(field string, cause error, format string, args ...any) *FormatError {
	var b strings.Builder
	for _, s := range [...]struct{ kind, name string }{
		{"entity table", d.in.table}, {"frame", d.in.frame}, {"column", d.in.column}, {"conference", d.in.conf},
	} {
		if s.name != "" {
			fmt.Fprintf(&b, "%s %q ", s.kind, s.name)
		}
	}
	b.WriteString(field)
	if format != "" {
		b.WriteString(": ")
		fmt.Fprintf(&b, format, args...)
	}
	return &FormatError{Section: d.section, Offset: int64(d.off), Msg: b.String(), Err: cause}
}

// remaining returns the unread byte count.
func (d *dec) remaining() int { return len(d.data) - d.off }

// finished reports whether the payload was fully consumed; codecs call it
// last so trailing garbage inside a section is rejected, not ignored.
func (d *dec) finished() error {
	if d.remaining() != 0 {
		return &FormatError{Section: d.section, Offset: int64(d.off), Msg: "trailing bytes after payload", Err: ErrCorrupt}
	}
	return nil
}

func (d *dec) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.err(what, ErrTruncated, "")
	}
	d.off += n
	return v, nil
}

func (d *dec) varint(what string) (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, d.err(what, ErrTruncated, "")
	}
	d.off += n
	return v, nil
}

func (d *dec) u8(what string) (uint8, error) {
	if d.remaining() < 1 {
		return 0, d.err(what, ErrTruncated, "")
	}
	v := d.data[d.off]
	d.off++
	return v, nil
}

func (d *dec) bool(what string) (bool, error) {
	v, err := d.u8(what)
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, d.err(what, ErrCorrupt, "boolean byte %d not 0 or 1", v)
	}
	return v == 1, nil
}

func (d *dec) f64(what string) (float64, error) {
	if d.remaining() < 8 {
		return 0, d.err(what, ErrTruncated, "")
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return math.Float64frombits(v), nil
}

func (d *dec) str(what string) (string, error) {
	n, err := d.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", d.err(what, ErrTruncated, "declared length %d exceeds remaining bytes", n)
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// count reads a declared element count and proves it, in one place for
// every reader: it must fit in the remaining bytes at minBytes per
// element, and then equal want, the rows the caller expects, unless want
// is anyCount.
func (d *dec) count(what string, want, minBytes int) (int, error) {
	n, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if n > uint64(d.remaining())/uint64(minBytes) {
		return 0, d.err(what, ErrTruncated, "declared count %d exceeds remaining bytes", n)
	}
	if want != anyCount && n != uint64(want) {
		return 0, d.err(what, ErrCorrupt, "declares %d, want %d", n, want)
	}
	return int(n), nil
}

// bitmap reads a bitmap over n rows and proves it canonical: exactly the
// words n rows need, and no bit set at or beyond row n (a nonzero tail
// would make popcount-dependent column lengths ambiguous).
//
//whpcvet:hot
func (d *dec) bitmap(what string, n int) (query.Bitmap, error) {
	words, err := d.count(what, (n+63)/64, 8)
	if err != nil || words == 0 {
		return nil, err
	}
	out := make(query.Bitmap, words)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(d.data[d.off:])
		d.off += 8
	}
	if n%64 != 0 && out[words-1]>>(uint(n)&63) != 0 {
		return nil, d.err(what, ErrCorrupt, "bits set beyond row %d", n)
	}
	return out, nil
}

// strs reads n length-prefixed strings (anyCount: as many as declared).
// All values share one backing allocation (a single copy of the column's
// byte region) instead of one allocation each, which dominates warm-boot
// decode time for the large id/name/title columns. A first pass proves
// every length fits; the second, which cannot fail, slices the copy.
//
//whpcvet:hot
func (d *dec) strs(what string, n int) ([]string, error) {
	n, err := d.count(what, n, 1)
	if err != nil {
		return nil, err
	}
	start := d.off
	for range n {
		ln, adv := binary.Uvarint(d.data[d.off:])
		if adv <= 0 {
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what, ErrTruncated, "truncated value length")
		}
		d.off += adv
		if ln > uint64(d.remaining()) {
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what, ErrTruncated, "declared value length %d exceeds remaining bytes", ln)
		}
		d.off += int(ln)
	}
	region := d.data[start:d.off]
	blob := string(region)
	out := make([]string, n)
	off := 0
	for i := range out {
		ln, adv := binary.Uvarint(region[off:])
		off += adv
		out[i] = blob[off : off+int(ln)]
		off += int(ln)
	}
	return out, nil
}

// ints reads an int column of n rows. Most values fit one varint byte,
// which the loop decodes itself; longer ones go through binary.Varint.
//
//whpcvet:hot
func (d *dec) ints(what string, n int) ([]int64, error) {
	n, err := d.count(what, n, 1)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	data, off := d.data, d.off
	for i := range out {
		if off < len(data) && data[off] < 0x80 {
			ux := int64(data[off])
			out[i] = ux>>1 ^ -(ux & 1) // zigzag, as binary.Varint decodes it
			off++
			continue
		}
		v, adv := binary.Varint(data[off:])
		if adv <= 0 {
			d.off = off
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what, ErrTruncated, "")
		}
		out[i] = v
		off += adv
	}
	d.off = off
	return out, nil
}

// enums reads an int column of n rows whose every value is an enum code
// from 0 through hi.
//
//whpcvet:hot
func (d *dec) enums(what string, n int, hi int64) ([]int64, error) {
	out, err := d.ints(what, n)
	if err != nil {
		return nil, err
	}
	for i, v := range out {
		if v < 0 || v > hi {
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what, ErrCorrupt, "row %d value %d outside [0, %d]", i, v, hi)
		}
	}
	return out, nil
}

// codes reads a dictionary-code column of n rows, validating every code
// against the dictionary cardinality so a decoded column can never index
// out of range.
//
//whpcvet:hot
func (d *dec) codes(what string, n, dictLen int) ([]int32, error) {
	n, err := d.count(what, n, 1)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	data, off := d.data, d.off
	for i := range out {
		v, adv := uint64(0), 1
		if off < len(data) && data[off] < 0x80 {
			v = uint64(data[off])
		} else if v, adv = binary.Uvarint(data[off:]); adv <= 0 {
			d.off = off
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what, ErrTruncated, "")
		}
		off += adv
		if v >= uint64(dictLen) {
			d.off = off
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what, ErrCorrupt, "code %d out of range (%d values)", v, dictLen)
		}
		out[i] = int32(v)
	}
	d.off = off
	return out, nil
}

// floats reads a float column of n rows; count has proven its bytes are
// there.
//
//whpcvet:hot
func (d *dec) floats(what string, n int) ([]float64, error) {
	n, err := d.count(what, n, 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
		d.off += 8
	}
	return out, nil
}

// repeated returns a value vals holds twice, if any. It compares
// neighbours of a sorted copy, so no string is hashed.
func repeated(vals []string) (string, bool) {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] == sorted[i] {
			return sorted[i], true
		}
	}
	return "", false
}
