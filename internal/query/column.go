// Package query is a stdlib-only columnar query engine for ad-hoc
// bibliometric slices over the reproduction's corpus. It flattens the
// Study's role-holder/paper/researcher graph into typed column vectors
// (dictionary-encoded strings, int/float vectors, boolean and validity
// bitmaps) grouped into a small set of Frames, and executes a declarative
// JSON query model — predicate-pushdown filters, multi-key group-by,
// aggregate kernels (count, sum, mean, min, max, first, FAR-style
// ratio-of-flags) and two-group comparison kernels (Welch t-test and
// two-proportion chi-squared, reusing internal/stats) — serially over
// fixed-size row partitions merged in partition order, so results are
// byte-identical regardless of GOMAXPROCS.
//
// The engine is correctness-checked against the paper itself: the named
// queries in ExhibitQueries reproduce the repository's exhibit CSV
// families byte-for-byte (see repro_test.go at the module root).
package query

import (
	"strconv"
	"sync"
)

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
//
// The value→code index is built on the first Lookup or Code, not when the
// dictionary is made: a dictionary decoded from a snapshot holds only its
// values until something looks one up, and most never are. Concurrent
// Lookups are safe, including the first; Code, which appends, must not run
// concurrently with any other method.
type Dict struct {
	vals    []string
	idxOnce sync.Once
	idx     map[string]int32
}

// NewDict returns an empty dictionary, pre-seeding the given values in
// order (seeding fixes the appearance order independently of row order).
func NewDict(seed ...string) *Dict {
	d := &Dict{}
	for _, s := range seed {
		d.Code(s)
	}
	return d
}

// DictOf returns the dictionary whose code i is vals[i]. vals must hold no
// value twice (the caller proves it; the snapshot decoder does so without
// hashing), and the dictionary takes ownership of the slice.
func DictOf(vals []string) *Dict { return &Dict{vals: vals} }

// index returns the value→code index, building it on first use. The index
// has room for a quarter more values than the dictionary holds: a decoded
// dictionary's first Code is usually a delta appending one conference's
// new values, which then fit without the map doubling.
func (d *Dict) index() map[string]int32 {
	d.idxOnce.Do(func() {
		d.idx = make(map[string]int32, len(d.vals)+len(d.vals)/4)
		for i, v := range d.vals {
			d.idx[v] = int32(i)
		}
	})
	return d.idx
}

// Code interns s, returning its stable code.
func (d *Dict) Code(s string) int32 {
	idx := d.index()
	if c, ok := idx[s]; ok {
		return c
	}
	c := int32(len(d.vals))
	d.vals = append(d.vals, s)
	idx[s] = c
	return c
}

// Lookup returns the code for s without interning; ok is false when s was
// never seen (predicates on absent values become constant-false).
func (d *Dict) Lookup(s string) (int32, bool) {
	c, ok := d.index()[s]
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
	Entity string  // for TStr, the entity whose IDs the column holds ("" for none)

	Valid Bitmap // nil means all rows valid
}

// valid reports whether row i holds a value.
func (c *Column) valid(i int) bool { return c.Valid == nil || c.Valid.Get(i) }

// str returns the string value at row i (TStr columns only).
func (c *Column) str(i int) string { return c.Dict.Value(c.Codes[i]) }
