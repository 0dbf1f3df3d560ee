package snap

import (
	"encoding/binary"
	"math"

	"repro/internal/query"
)

// dec is a bounds-checked reader over one section payload. Every method
// returns a *FormatError carrying the section name and the offset the
// failure was detected at; nothing in this file panics on any input, and
// declared lengths are validated against the remaining bytes before
// allocation so hostile inputs cannot force huge allocations.
type dec struct {
	section string
	data    []byte
	off     int
}

func newDec(section string, data []byte) *dec {
	return &dec{section: section, data: data}
}

// err builds a FormatError at the current offset.
func (d *dec) err(msg string, cause error) *FormatError {
	return &FormatError{Section: d.section, Offset: int64(d.off), Msg: msg, Err: cause}
}

// remaining returns the unread byte count.
func (d *dec) remaining() int { return len(d.data) - d.off }

// finished reports whether the payload was fully consumed; codecs call it
// last so trailing garbage inside a section is rejected, not ignored.
func (d *dec) finished(what string) error {
	if d.remaining() != 0 {
		return d.err(what+": trailing bytes after payload", ErrCorrupt)
	}
	return nil
}

func (d *dec) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.err(what, ErrTruncated)
	}
	d.off += n
	return v, nil
}

func (d *dec) varint(what string) (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, d.err(what, ErrTruncated)
	}
	d.off += n
	return v, nil
}

func (d *dec) u8(what string) (uint8, error) {
	if d.remaining() < 1 {
		return 0, d.err(what, ErrTruncated)
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
		return false, d.err(what+": boolean byte not 0 or 1", ErrCorrupt)
	}
	return v == 1, nil
}

func (d *dec) f64(what string) (float64, error) {
	if d.remaining() < 8 {
		return 0, d.err(what, ErrTruncated)
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return math.Float64frombits(v), nil
}

func (d *dec) str(what string) (string, error) {
	// Inlined uvarint so the hot path allocates no error-label strings.
	n, adv := binary.Uvarint(d.data[d.off:])
	if adv <= 0 {
		return "", d.err(what+": truncated length", ErrTruncated)
	}
	d.off += adv
	if n > uint64(d.remaining()) {
		return "", d.err(what+": declared length exceeds remaining bytes", ErrTruncated)
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// length reads a declared element count, rejecting counts that cannot fit
// in the remaining bytes at minBytes per element.
func (d *dec) length(what string, minBytes int) (int, error) {
	n, err := d.uvarint(what + " count")
	if err != nil {
		return 0, err
	}
	if minBytes > 0 && n > uint64(d.remaining())/uint64(minBytes) {
		return 0, d.err(what+": declared count exceeds remaining bytes", ErrTruncated)
	}
	return int(n), nil
}

//whpcvet:hot
func (d *dec) words(what string) (query.Bitmap, error) {
	n, err := d.length(what, 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make(query.Bitmap, n)
	for i := range out {
		if d.remaining() < 8 {
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what, ErrTruncated)
		}
		out[i] = binary.LittleEndian.Uint64(d.data[d.off:])
		d.off += 8
	}
	return out, nil
}

func (d *dec) strDict(what string) ([]string, error) {
	n, err := d.length(what, 1)
	if err != nil {
		return nil, err
	}
	return d.strings(what, n)
}

// strings reads n length-prefixed strings. All values share one backing
// allocation (a single copy of the column's byte region) instead of one
// allocation each, which dominates warm-boot decode time for the large
// id/name/title columns.
//
//whpcvet:hot
func (d *dec) strings(what string, n int) ([]string, error) {
	type span struct{ off, len int }
	spans := make([]span, n)
	start := d.off
	for i := range spans {
		ln, adv := binary.Uvarint(d.data[d.off:])
		if adv <= 0 {
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what+": truncated value length", ErrTruncated)
		}
		d.off += adv
		if ln > uint64(d.remaining()) {
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what+": declared value length exceeds remaining bytes", ErrTruncated)
		}
		spans[i] = span{d.off, int(ln)}
		d.off += int(ln)
	}
	blob := string(d.data[start:d.off])
	out := make([]string, n)
	for i, sp := range spans {
		rel := sp.off - start
		out[i] = blob[rel : rel+sp.len]
	}
	return out, nil
}

//whpcvet:hot
func (d *dec) intCol(what string) ([]int64, error) {
	n, err := d.length(what, 1)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		if out[i], err = d.varint(what); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// codeCol reads a dictionary-code column, validating every code against
// the dictionary cardinality so a decoded column can never index out of
// range.
//
//whpcvet:hot
func (d *dec) codeCol(what string, dictLen int) ([]int32, error) {
	n, err := d.length(what, 1)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		v, err := d.uvarint(what)
		if err != nil {
			return nil, err
		}
		if v >= uint64(dictLen) {
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what+": dictionary code out of range", ErrCorrupt)
		}
		out[i] = int32(v)
	}
	return out, nil
}

//whpcvet:hot
func (d *dec) floatCol(what string) ([]float64, error) {
	n, err := d.length(what, 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = d.f64(what); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *dec) strCol(what string) ([]string, error) {
	n, err := d.length(what, 1)
	if err != nil {
		return nil, err
	}
	return d.strings(what, n)
}
