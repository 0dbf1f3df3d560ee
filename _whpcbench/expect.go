package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"slices"

	"repro"
	"repro/internal/query"
	"repro/internal/report"
)

func (r *request) setWant(body []byte, err error) {
	if err != nil {
		r.prepErr = err
		return
	}
	r.want = sha256.Sum256(body)
	r.haveWant = true
}

// expect fills in every request's expectation from the library, on the
// study whpcd will serve for the request's key.
func (p *plan) expect(studies func(studyKey) (*repro.Study, error)) {
	for _, r := range p.reqs {
		if r.haveWant || r.prepErr != nil || r.dtoCheck != nil {
			continue
		}
		st, err := studies(r.key)
		if err != nil {
			r.prepErr = err
			continue
		}
		if r.kind <= kExhibitList {
			r.dtoCheck = dtoCheck(r.kind, st)
			continue
		}
		r.setWant(render(r, st))
	}
}

// render produces a request's expected body from the library.
func render(r *request, st *repro.Study) ([]byte, error) {
	var buf bytes.Buffer
	switch r.kind {
	case kExhibit:
		ex, ok := st.Exhibit(r.arg)
		if !ok {
			return nil, fmt.Errorf("no exhibit %q", r.arg)
		}
		err := ex.Render(&buf)
		return buf.Bytes(), err
	case kCSV:
		exp, ok := report.CSVExportByName(st.Dataset(), r.arg)
		if !ok {
			return nil, fmt.Errorf("no csv export %q", r.arg)
		}
		rows, err := exp.Rows()
		if err != nil {
			return nil, err
		}
		w := csv.NewWriter(&buf)
		if err := w.WriteAll(rows); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case kReport:
		err := st.WriteReport(&buf)
		return buf.Bytes(), err
	case kTrend, kCite:
		eq, ok := repro.ExhibitQueryByName(viewQueries[r.arg])
		if !ok {
			return nil, fmt.Errorf("no exhibit query for view %q", r.arg)
		}
		res, err := st.Query(eq.Query)
		if err != nil {
			return nil, err
		}
		return res.CSV()
	case kQuery:
		q, err := query.Parse(r.body)
		if err != nil {
			return nil, err
		}
		res, err := st.Query(q)
		if err != nil {
			return nil, err
		}
		b, _, err := res.Encode(q.Format)
		return b, err
	}
	return nil, fmt.Errorf("request kind %d has no library rendering", r.kind)
}

// proportion mirrors the JSON shape of a k-of-n proportion.
type proportion struct {
	Women int `json:"women"`
	Known int `json:"known"`
}

// dtoCheck returns the check for a JSON DTO route's first response: the
// numbers it carries must equal the library's for the same study. Later
// responses must then repeat that response's bytes.
func dtoCheck(kind int, st *repro.Study) func([]byte) error {
	switch kind {
	case kFAR:
		far := st.FAR()
		return func(b []byte) error {
			var got struct {
				Overall    proportion `json:"overall"`
				TotalSlots int        `json:"total_slots"`
			}
			if err := json.Unmarshal(b, &got); err != nil {
				return err
			}
			if got.Overall.Women != far.Overall.K || got.Overall.Known != far.Overall.N || got.TotalSlots != far.TotalSlots {
				return fmt.Errorf("far %+v, library %d/%d of %d slots", got, far.Overall.K, far.Overall.N, far.TotalSlots)
			}
			return nil
		}
	case kRoles:
		lead := st.Roles().OverallLead
		return func(b []byte) error {
			var got struct {
				Lead proportion `json:"overall_lead"`
			}
			if err := json.Unmarshal(b, &got); err != nil {
				return err
			}
			if got.Lead.Women != lead.K || got.Lead.Known != lead.N {
				return fmt.Errorf("overall_lead %+v, library %d/%d", got.Lead, lead.K, lead.N)
			}
			return nil
		}
	case kSensitivity:
		res, err := st.Sensitivity()
		return func(b []byte) error {
			if err != nil {
				return err
			}
			var got struct {
				Unknown int `json:"unknown_count"`
			}
			if err := json.Unmarshal(b, &got); err != nil {
				return err
			}
			if got.Unknown != res.UnknownCount {
				return fmt.Errorf("unknown_count %d, library %d", got.Unknown, res.UnknownCount)
			}
			return nil
		}
	default: // kExhibitList
		var ids []string
		for _, e := range st.Exhibits() {
			ids = append(ids, e.ID)
		}
		return func(b []byte) error {
			var got struct {
				Exhibits []struct {
					ID string `json:"id"`
				} `json:"exhibits"`
			}
			if err := json.Unmarshal(b, &got); err != nil {
				return err
			}
			var gotIDs []string
			for _, e := range got.Exhibits {
				gotIDs = append(gotIDs, e.ID)
			}
			if !slices.Equal(gotIDs, ids) {
				return fmt.Errorf("exhibit ids %v, library %v", gotIDs, ids)
			}
			return nil
		}
	}
}

// checker applies expectations to responses and counts outcomes.
type checker struct {
	attempted, failed int
	printed           int
}

// check reports whether one response matched; it prints the first
// mismatches with their phase and operation index.
func (c *checker) check(phase string, op int, r *request, status int, body []byte, err error) bool {
	c.attempted++
	why := ""
	switch {
	case err != nil:
		why = err.Error()
	case r.prepErr != nil:
		why = "no expectation: " + r.prepErr.Error()
	case status != 200:
		why = fmt.Sprintf("status %d: %.200s", status, body)
	case !r.haveWant:
		if cerr := r.dtoCheck(body); cerr != nil {
			why = cerr.Error()
		} else {
			r.want = sha256.Sum256(body)
			r.haveWant = true
		}
	case sha256.Sum256(body) != r.want:
		why = fmt.Sprintf("body digest differs from the library's (%d bytes)", len(body))
	}
	if why == "" {
		return true
	}
	c.failed++
	if c.printed < 20 {
		c.printed++
		logf("mismatch: %s op %d %s %s: %s", phase, op, r.method, r.path, why)
	}
	return false
}
