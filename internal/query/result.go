package query

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// Value is one result cell. Kind selects the populated field; Null cells
// encode as "" in CSV and null in JSON.
type Value struct {
	Kind ColType
	Null bool
	I    int64
	F    float64
	S    string
	B    bool
}

// csvString renders the cell with the same conventions as the exhibit CSV
// exporter: strconv.FormatInt, FormatBool, and FormatFloat(x, 'g', -1, 64)
// — which prints NaN as "NaN" — so query output can be diffed byte-for-byte
// against committed exhibit files.
func (v Value) csvString() string {
	if v.Null {
		return ""
	}
	switch v.Kind {
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TBool:
		return strconv.FormatBool(v.B)
	default:
		return v.S
	}
}

// MarshalJSON encodes the cell as a bare JSON scalar. Non-finite floats
// have no JSON representation; they encode as null, matching the exhibit
// DTO convention for no-data ratios.
func (v Value) MarshalJSON() ([]byte, error) {
	return v.appendJSON(nil), nil
}

// appendJSON appends the cell's JSON encoding to b: exactly the bytes
// encoding/json produces for the cell, without its reflection.
func (v Value) appendJSON(b []byte) []byte {
	if v.Null {
		return append(b, "null"...)
	}
	switch v.Kind {
	case TInt:
		return strconv.AppendInt(b, v.I, 10)
	case TFloat:
		return appendJSONFloat(b, v.F)
	case TBool:
		return strconv.AppendBool(b, v.B)
	default:
		return appendJSONString(b, v.S)
	}
}

// appendJSONFloat follows encoding/json's float64 rules: the shortest
// round-tripping form, in 'f' notation except below 1e-6 or at 1e21 and
// above, where 'e' notation drops the exponent's leading zero (e-07 is
// written e-7). Non-finite values encode as null.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); (abs > 0 && abs < 1e-6) || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString quotes s as encoding/json does, HTML escaping included.
// Strings with nothing to escape — no quote, backslash, control byte, <, >
// or &, no invalid UTF-8 and no U+2028 or U+2029 — are copied verbatim;
// any other string is handed to json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return appendMarshaled(b, s)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			return appendMarshaled(b, s)
		}
		i += size
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendMarshaled appends json.Marshal(s), which cannot fail for a string.
func appendMarshaled(b []byte, s string) []byte {
	q, _ := json.Marshal(s)
	return append(b, q...)
}

// CompareResult is the outcome of a two-group test attached to a grouped
// result.
type CompareResult struct {
	Test   string    `json:"test"`
	Groups [2]string `json:"groups"`
	N      [2]int    `json:"n"`
	Stat   float64   `json:"stat"`
	DF     float64   `json:"df"`
	P      float64   `json:"p"`
	Method string    `json:"method"`
}

// MarshalJSON guards the float fields against non-finite values, which
// encoding/json rejects.
func (c CompareResult) MarshalJSON() ([]byte, error) {
	type dto struct {
		Test   string    `json:"test"`
		Groups [2]string `json:"groups"`
		N      [2]int    `json:"n"`
		Stat   *float64  `json:"stat"`
		DF     *float64  `json:"df"`
		P      *float64  `json:"p"`
		Method string    `json:"method"`
	}
	fin := func(f float64) *float64 {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil
		}
		return &f
	}
	return json.Marshal(dto{
		Test: c.Test, Groups: c.Groups, N: c.N,
		Stat: fin(c.Stat), DF: fin(c.DF), P: fin(c.P), Method: c.Method,
	})
}

// Result is an executed query: the visible output columns and their rows,
// plus the optional comparison.
type Result struct {
	Columns []string       `json:"columns"`
	Rows    [][]Value      `json:"rows"`
	Compare *CompareResult `json:"compare,omitempty"`
}

// newResult initializes the result with the plan's visible column names.
func newResult(p *plan) *Result {
	r := &Result{Rows: [][]Value{}}
	if p.grouped {
		for _, k := range p.keys {
			if !k.hide {
				r.Columns = append(r.Columns, k.name)
			}
		}
		for _, a := range p.aggs {
			r.Columns = append(r.Columns, a.name)
		}
	} else {
		for _, s := range p.selects {
			r.Columns = append(r.Columns, s.name)
		}
	}
	return r
}

// addRow projects a unified grouped row (all keys + aggs) down to the
// visible columns and appends it.
func (r *Result) addRow(p *plan, vals []Value) {
	out := make([]Value, 0, len(r.Columns))
	for ki, k := range p.keys {
		if !k.hide {
			out = append(out, vals[ki])
		}
	}
	out = append(out, vals[len(p.keys):]...)
	r.Rows = append(r.Rows, out)
}

// CSV encodes the result as RFC 4180 CSV with \n line endings, the exact
// convention of the exhibit CSV exporter.
func (r *Result) CSV() ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(r.Columns); err != nil {
		return nil, err
	}
	rec := make([]string, len(r.Columns))
	for _, row := range r.Rows {
		for i, v := range row {
			rec[i] = v.csvString()
		}
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// JSON encodes the result as deterministic JSON — byte for byte what
// json.Marshal(r) produces — by appending to one buffer.
func (r *Result) JSON() ([]byte, error) {
	b := make([]byte, 0, 1024)
	b = append(b, `{"columns":`...)
	if r.Columns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range r.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":`...)
	if r.Rows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				b = v.appendJSON(b)
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if r.Compare != nil {
		c, err := r.Compare.MarshalJSON()
		if err != nil {
			return nil, err
		}
		b = append(b, `,"compare":`...)
		b = append(b, c...)
	}
	return append(b, '}'), nil
}

// Encode renders per the requested format (JSON when empty) and reports
// the matching content type.
func (r *Result) Encode(format string) (body []byte, contentType string, err error) {
	if format == FormatCSV {
		b, err := r.CSV()
		return b, "text/csv; charset=utf-8", err
	}
	b, err := r.JSON()
	return b, "application/json", err
}
