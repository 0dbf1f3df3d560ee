package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/query"
)

// postQuery drives one /v1/query request through the full middleware chain.
func postQuery(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(body)))
	return rec
}

// decodeQueryError asserts the response carries the structured JSON error
// envelope and returns it.
func decodeQueryError(t *testing.T, rec *httptest.ResponseRecorder) queryErrorDTO {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error Content-Type = %q, want application/json", ct)
	}
	var dto queryErrorDTO
	if err := json.Unmarshal(rec.Body.Bytes(), &dto); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, rec.Body.String())
	}
	if dto.Status != rec.Code {
		t.Fatalf("envelope status %d != response code %d", dto.Status, rec.Code)
	}
	if dto.Error == "" {
		t.Fatal("error envelope has empty message")
	}
	return dto
}

// TestQueryReproducesCSVExport is the endpoint's byte-identity anchor: the
// far_per_conference exhibit query POSTed to /v1/query returns exactly the
// bytes /v1/csv/far_per_conference serves.
func TestQueryReproducesCSVExport(t *testing.T) {
	s := newTestServer(t, nil)
	eq, ok := repro.ExhibitQueryByName("far_per_conference")
	if !ok {
		t.Fatal("no far_per_conference exhibit query")
	}
	spec := string(eq.Query.Canonical())

	cold := postQuery(t, s, spec)
	if cold.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", cold.Code, cold.Body.String())
	}
	if got := cold.Header().Get("X-Cache"); got != CacheMiss {
		t.Fatalf("cold X-Cache = %q, want %q", got, CacheMiss)
	}
	if ct := cold.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("Content-Type = %q, want text/csv", ct)
	}
	viaCSV := get(t, s, "/v1/csv/far_per_conference")
	if viaCSV.Code != http.StatusOK {
		t.Fatalf("/v1/csv status = %d", viaCSV.Code)
	}
	if !bytes.Equal(cold.Body.Bytes(), viaCSV.Body.Bytes()) {
		t.Fatalf("query bytes differ from CSV export\n--- query ---\n%s\n--- export ---\n%s",
			cold.Body.String(), viaCSV.Body.String())
	}

	warm := postQuery(t, s, spec)
	if got := warm.Header().Get("X-Cache"); got != CacheHit {
		t.Fatalf("warm X-Cache = %q, want %q", got, CacheHit)
	}
	if !bytes.Equal(warm.Body.Bytes(), cold.Body.Bytes()) {
		t.Fatal("cached bytes differ from cold render")
	}
}

// TestQueryCacheKeyedByCanonicalHash proves memoization is semantic: two
// spellings of the same query (reordered fields, whitespace) share one
// cache entry, so the second POST is a hit even though the raw bytes
// differ.
func TestQueryCacheKeyedByCanonicalHash(t *testing.T) {
	s := newTestServer(t, nil)
	a := `{"frame":"slots","group_by":["conference"],"aggs":[{"op":"count","as":"n"}]}`
	b := `{
		"aggs": [ { "as": "n", "op": "count" } ],
		"group_by": [ {"col": "conference"} ],
		"frame": "slots"
	}`
	first := postQuery(t, s, a)
	if first.Code != http.StatusOK {
		t.Fatalf("first status = %d: %s", first.Code, first.Body.String())
	}
	second := postQuery(t, s, b)
	if second.Code != http.StatusOK {
		t.Fatalf("second status = %d: %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Cache"); got != CacheHit {
		t.Fatalf("respelled query X-Cache = %q, want %q", got, CacheHit)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("respelled query returned different bytes")
	}
}

// TestQueryBadRequests drives the malformed-spec matrix: every rejection
// must come back as a structured JSON envelope with the right 4xx status —
// and never a panic or an empty 200.
func TestQueryBadRequests(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"syntax error", `{"frame":`, http.StatusBadRequest},
		{"unknown field", `{"frame":"slots","grup_by":["conference"]}`, http.StatusBadRequest},
		{"unknown frame", `{"frame":"nope","select":["conference"]}`, http.StatusBadRequest},
		{"unknown column", `{"frame":"slots","group_by":["nope"],"aggs":[{"op":"count","as":"n"}]}`, http.StatusBadRequest},
		{"unknown aggregate", `{"frame":"slots","group_by":["conference"],"aggs":[{"op":"median","col":"citations36","as":"m"}]}`, http.StatusBadRequest},
		{"float equality", `{"frame":"slots","where":[{"col":"attendance","op":"eq","value":1}],"select":["conference"]}`, http.StatusBadRequest},
		{"empty group result", `{"frame":"people","where":[{"col":"country","op":"eq","value":"Atlantis"}],"group_by":["country"],"aggs":[{"op":"count","as":"n"}]}`, http.StatusUnprocessableEntity},
		{"trailing data", `{"frame":"slots","select":["conference"]} extra`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postQuery(t, s, tc.body)
			if rec.Code != tc.code {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.code, rec.Body.String())
			}
			decodeQueryError(t, rec)
		})
	}
}

// TestQueryOversizedSpecRejected sends a spec past the 64 KiB body cap and
// expects a structured 413 without the parser ever seeing the payload.
func TestQueryOversizedSpecRejected(t *testing.T) {
	s := newTestServer(t, nil)
	huge := `{"frame":"slots","select":["conference"],"limit":1,"padding":"` +
		strings.Repeat("x", maxQueryBytes) + `"}`
	rec := postQuery(t, s, huge)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", rec.Code, rec.Body.String())
	}
	decodeQueryError(t, rec)
}

// TestQueryTooLargeRejected: a complete group-by whose key-domain product
// exceeds the engine's bound is the client's structured 422, and the
// envelope carries the estimate and the bound.
func TestQueryTooLargeRejected(t *testing.T) {
	s := newTestServer(t, nil)
	rec := postQuery(t, s, `{"frame":"slots","group_by":[{"col":"person"},{"col":"paper"}],"aggs":[{"op":"count","as":"n"}],"complete":true,"limit":1}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", rec.Code, rec.Body.String())
	}
	dto := decodeQueryError(t, rec)
	if dto.Limit != query.MaxCompleteGroups || dto.Estimate <= dto.Limit {
		t.Errorf("envelope estimate %d, limit %d: want an estimate over the limit %d", dto.Estimate, dto.Limit, query.MaxCompleteGroups)
	}
	if !strings.Contains(dto.Error, "too large") {
		t.Errorf("error %q does not say the result is too large", dto.Error)
	}
}

// TestQueryErrorsNotCached proves a failing spec is re-evaluated on every
// POST: errors never enter the exhibit cache, so a later identical request
// cannot be served a stale failure (or vice versa).
func TestQueryErrorsNotCached(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{"frame":"people","where":[{"col":"country","op":"eq","value":"Atlantis"}],"group_by":["country"],"aggs":[{"op":"count","as":"n"}]}`
	before := s.cache.Len()
	for i := 0; i < 2; i++ {
		rec := postQuery(t, s, body)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("POST %d: status = %d, want 422", i, rec.Code)
		}
	}
	if after := s.cache.Len(); after != before {
		t.Fatalf("failing query grew the cache: %d -> %d entries", before, after)
	}
}

// TestQueryFloatProjection: projecting a float column answers 200 with
// one row per slot, not a contained panic.
func TestQueryFloatProjection(t *testing.T) {
	s := newTestServer(t, nil)
	rec := postQuery(t, s, `{"frame":"slots","select":["attendance"],"format":"csv","limit":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if lines := strings.Count(rec.Body.String(), "\n"); lines != 4 {
		t.Fatalf("got %d CSV lines, want header + 3 rows:\n%s", lines, rec.Body.String())
	}
}

// TestQueryMethodNotAllowed: /v1/query is POST-only.
func TestQueryMethodNotAllowed(t *testing.T) {
	rec := get(t, newTestServer(t, nil), "/v1/query")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query status = %d, want 405", rec.Code)
	}
}
