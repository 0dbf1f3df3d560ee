// Package query is a stdlib-only columnar query engine for ad-hoc
// bibliometric slices over the reproduction's corpus. It flattens the
// Study's role-holder/paper/researcher graph into typed column vectors
// (dictionary-encoded strings, int/float vectors, boolean and validity
// bitmaps) grouped into a small set of Frames, and executes a declarative
// JSON query model — predicate-pushdown filters, multi-key group-by,
// aggregate kernels (count, sum, mean, min, max, first, FAR-style
// ratio-of-flags) and two-group comparison kernels (Welch t-test and
// two-proportion chi-squared, reusing internal/stats) — in parallel over
// fixed-size row partitions with a deterministic merge, so results are
// byte-identical regardless of GOMAXPROCS.
//
// The engine is correctness-checked against the paper itself: the named
// queries in ExhibitQueries reproduce the repository's exhibit CSV
// families byte-for-byte (see repro_test.go at the module root).
package query

import "strconv"

// ColType is the storage type of one column vector.
type ColType int8

// Column storage types. Strings are dictionary-encoded; booleans and
// validity are bitmaps.
const (
	TInt ColType = iota
	TFloat
	TStr
	TBool
)

// String names the type as the JSON schema output spells it.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TStr:
		return "str"
	case TBool:
		return "bool"
	default:
		return "coltype(" + strconv.Itoa(int(t)) + ")"
	}
}

// Bitmap is a dense bitset over row indexes.
type Bitmap []uint64

// NewBitmap returns a bitmap with capacity for n rows, all clear.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Set marks row i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether row i is set.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Dict is an append-only string dictionary. Codes are assigned in first-
// insertion order, which frame builders exploit to make "appearance" sort
// order meaningful (e.g. conference dictionaries follow Table 1 order).
type Dict struct {
	vals []string
	idx  map[string]int32
}

// NewDict returns an empty dictionary, pre-seeding the given values in
// order (seeding fixes the appearance order independently of row order).
func NewDict(seed ...string) *Dict {
	d := &Dict{idx: make(map[string]int32, len(seed))}
	for _, s := range seed {
		d.Code(s)
	}
	return d
}

// Code interns s, returning its stable code.
func (d *Dict) Code(s string) int32 {
	if c, ok := d.idx[s]; ok {
		return c
	}
	c := int32(len(d.vals))
	d.vals = append(d.vals, s)
	d.idx[s] = c
	return c
}

// Lookup returns the code for s without interning; ok is false when s was
// never seen (predicates on absent values become constant-false).
func (d *Dict) Lookup(s string) (int32, bool) {
	c, ok := d.idx[s]
	return c, ok
}

// Value returns the string for a code.
func (d *Dict) Value(c int32) string { return d.vals[c] }

// Values returns a copy of the dictionary values in code order (code i is
// Values()[i]); the snapshot codec serializes dictionaries through it.
func (d *Dict) Values() []string {
	return append([]string(nil), d.vals...)
}

// Len returns the dictionary cardinality.
func (d *Dict) Len() int { return len(d.vals) }

// Column is one typed vector of a Frame. Exactly one of the data slices is
// populated according to Type; Valid is nil when every row is valid.
type Column struct {
	Name string
	Type ColType

	Ints   []int64
	Floats []float64
	Bools  Bitmap
	Codes  []int32 // dictionary codes, for TStr
	Dict   *Dict   // shared dictionary, for TStr

	Valid Bitmap // nil means all rows valid
}

// valid reports whether row i holds a value.
func (c *Column) valid(i int) bool { return c.Valid == nil || c.Valid.Get(i) }

// str returns the string value at row i (TStr columns only).
func (c *Column) str(i int) string { return c.Dict.Value(c.Codes[i]) }
