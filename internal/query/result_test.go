package query

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// jsonMirror is a Result rebuilt from plain values, so json.Marshal of it
// is an encoding of the same document that shares no code with
// Result.JSON's appender.
type jsonMirror struct {
	Columns []string       `json:"columns"`
	Rows    [][]any        `json:"rows"`
	Compare *CompareResult `json:"compare,omitempty"`
}

func mirrorOf(r *Result) jsonMirror {
	m := jsonMirror{Columns: r.Columns, Compare: r.Compare}
	if r.Rows == nil {
		return m
	}
	m.Rows = make([][]any, len(r.Rows))
	for i, row := range r.Rows {
		if row == nil {
			continue
		}
		m.Rows[i] = make([]any, len(row))
		for j, v := range row {
			switch {
			case v.Null:
				// nil already
			case v.Kind == TInt:
				m.Rows[i][j] = v.I
			case v.Kind == TFloat:
				if !math.IsNaN(v.F) && !math.IsInf(v.F, 0) {
					m.Rows[i][j] = v.F
				}
			case v.Kind == TBool:
				m.Rows[i][j] = v.B
			default:
				m.Rows[i][j] = v.S
			}
		}
	}
	return m
}

// FuzzResultJSON checks the append encoder against encoding/json: for
// results built around fuzzed strings, floats and ints — with nil and
// empty rows, null cells of every kind and an optional comparison —
// Result.JSON must equal json.Marshal of the plain-value mirror.
func FuzzResultJSON(f *testing.F) {
	// shape bit 0: nil columns; bits 1-2: nil, empty or full rows;
	// bit 3: a comparison; bit 4: the bool cell's value.
	f.Add("plain", "<a href='x'>&amp;</a>", 1e-6, int64(0), uint8(4))
	f.Add("\x00\x01\x1f\t\n\r\b\f\"\\", "\xff\xfe\xc3", 9.999999999999999e-7, int64(math.MinInt64), uint8(6))
	f.Add("line\u2028para\u2029", "é\x7f", 1e21, int64(math.MaxInt64), uint8(20))
	f.Add("", "", 999999999999999900000.0, int64(-1), uint8(5))
	f.Add("x", "y", math.Copysign(0, -1), int64(42), uint8(12))
	f.Add("sub", "normal", 5e-324, int64(7), uint8(4))
	f.Add("nan", "", math.NaN(), int64(0), uint8(14))
	f.Add("inf", "", math.Inf(1), int64(0), uint8(6))
	f.Add("-inf", "", math.Inf(-1), int64(0), uint8(4))
	f.Add("big", "", -1.2345678901234567e300, int64(0), uint8(4))
	f.Add("nil rows", "", 0.0, int64(0), uint8(0))
	f.Add("empty rows", "", 0.0, int64(0), uint8(3))
	// One escape trigger per string, so dropping any single case from the
	// encoder's fast-path test fails a seed.
	for _, s := range []string{"a<b", "a>b", "a&b", "a\"b", "a\\b", "a\x00b", "a\x1fb", "a\nb",
		"a\u2028b", "a\u2029b", "a\xffb", "\xc3", "é\x7f"} {
		f.Add(s, "", 1.5, int64(1), uint8(4))
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, x float64, i int64, shape uint8) {
		r := &Result{Columns: []string{s1, s2, "f", "i", "b"}}
		if shape&1 != 0 {
			r.Columns = nil
		}
		switch shape >> 1 & 3 {
		case 0:
			r.Rows = nil
		case 1:
			r.Rows = [][]Value{}
		default:
			r.Rows = [][]Value{
				{
					{Kind: TStr, S: s1}, {Kind: TStr, S: s2}, {Kind: TFloat, F: x},
					{Kind: TInt, I: i}, {Kind: TBool, B: shape&16 != 0},
				},
				nil,
				{},
				{{Kind: TStr, Null: true}, {Kind: TFloat, Null: true}, {Kind: TInt, Null: true}, {Kind: TBool, Null: true}},
				{
					{Kind: TFloat, F: -x}, {Kind: TFloat, F: x * 1e-6}, {Kind: TFloat, F: x * 1e21},
					{Kind: TFloat, F: math.Nextafter(x, 0)}, {Kind: TFloat, F: float64(i)},
					{Kind: TInt, I: -i}, {Kind: TFloat, F: 1e-6}, {Kind: TFloat, F: math.Nextafter(1e21, 0)},
				},
			}
		}
		if shape&8 != 0 {
			r.Compare = &CompareResult{Test: s1, Groups: [2]string{s2, s1}, N: [2]int{int(i), 3},
				Stat: x, DF: x * 1e-9, P: math.NaN(), Method: s2}
		}
		got, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(mirrorOf(r))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Result.JSON differs from encoding/json:\n got %s\nwant %s", got, want)
		}
		for _, row := range r.Rows {
			for _, v := range row {
				one, _ := v.MarshalJSON()
				if !json.Valid(one) {
					t.Fatalf("Value.MarshalJSON(%+v) = %s, not JSON", v, one)
				}
			}
		}
	})
}
