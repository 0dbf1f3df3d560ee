package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
)

// post drives one POST request through the full middleware chain.
func post(t *testing.T, s *Server, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", target, strings.NewReader(body)))
	return rec
}

// routeViews returns the view → exhibit-query name table of the view route
// mounted at path.
func routeViews(t *testing.T, path string) map[string]string {
	t.Helper()
	for _, vr := range viewRoutes {
		if vr.path == path {
			names := make(map[string]string, len(vr.views))
			for view, eq := range vr.views {
				names[view] = eq.Name
			}
			return names
		}
	}
	t.Fatalf("no view route at %s", path)
	return nil
}

// TestCiteByteIdentity: /v1/cite serves both views byte-identical to the
// exhibit queries run directly against the same study, defaults to the
// flow view, memoizes renders, and counts served views on
// whpcd_queries_total{frame="citations"}.
func TestCiteByteIdentity(t *testing.T) {
	study, err := repro.NewStudy(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) { c.Metrics = obs.NewRegistry() })

	for view, name := range routeViews(t, "/v1/cite") {
		cold := post(t, s, "/v1/cite", `{"view":"`+view+`"}`)
		if cold.Code != http.StatusOK {
			t.Fatalf("view %s: status = %d: %s", view, cold.Code, cold.Body.String())
		}
		if got := cold.Header().Get("X-Cache"); got != CacheMiss {
			t.Errorf("view %s: cold X-Cache = %q, want %q", view, got, CacheMiss)
		}
		if ct := cold.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Errorf("view %s: Content-Type = %q, want text/csv", view, ct)
		}
		want := exhibitQueryCSV(t, study, name)
		if !bytes.Equal(cold.Body.Bytes(), want) {
			t.Errorf("view %s: /v1/cite differs from the direct %s exhibit query", view, name)
		}
		warm := post(t, s, "/v1/cite", `{"view":"`+view+`"}`)
		if got := warm.Header().Get("X-Cache"); got != CacheHit {
			t.Errorf("view %s: warm X-Cache = %q, want %q", view, got, CacheHit)
		}
		if !bytes.Equal(warm.Body.Bytes(), want) {
			t.Errorf("view %s: cached /v1/cite differs from the cold render", view)
		}
	}

	// The empty body defaults to the flow view.
	def := post(t, s, "/v1/cite", "")
	if def.Code != http.StatusOK {
		t.Fatalf("default view: status = %d: %s", def.Code, def.Body.String())
	}
	if !bytes.Equal(def.Body.Bytes(), exhibitQueryCSV(t, study, "cite_flow")) {
		t.Error("default /v1/cite differs from the flow view")
	}

	// 2 views x 2 requests + the default = 5 served renders.
	if got := metricValue(t, s, `whpcd_queries_total{frame="citations"}`); got != "5" {
		t.Errorf(`whpcd_queries_total{frame="citations"} = %s, want 5`, got)
	}
}

// TestCiteUnknownView: an unrecognized view is the client's 400 with the
// structured error envelope, listing the route's views in sorted order.
func TestCiteUnknownView(t *testing.T) {
	s := newTestServer(t, nil)
	rec := post(t, s, "/v1/cite", `{"view":"sideways"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	const want = `unknown cite view "sideways" (have [flow gap])`
	if dto := decodeQueryError(t, rec); dto.Error != want {
		t.Errorf("error %q, want %q", dto.Error, want)
	}
}

// TestViewRoutesRejectBadBodies: on both view routes, a malformed body and
// an oversized body are the client's 4xx with the structured error
// envelope and the route's own error text.
func TestViewRoutesRejectBadBodies(t *testing.T) {
	s := newTestServer(t, nil)
	huge := `{"view":"` + strings.Repeat("x", maxQueryBytes) + `"}`
	cases := []struct {
		name, target, body string
		code               int
		msg                string
	}{
		{"trend malformed", "/v1/trend", `{"view":`, http.StatusBadRequest, "parsing trend request: "},
		{"cite malformed", "/v1/cite", `{"view":`, http.StatusBadRequest, "parsing cite request: "},
		{"trend oversized", "/v1/trend", huge, http.StatusRequestEntityTooLarge,
			"trend request exceeds 65536 bytes"},
		{"cite oversized", "/v1/cite", huge, http.StatusRequestEntityTooLarge,
			"cite request exceeds 65536 bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, s, tc.target, tc.body)
			if rec.Code != tc.code {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.code, rec.Body.String())
			}
			if dto := decodeQueryError(t, rec); !strings.HasPrefix(dto.Error, tc.msg) {
				t.Errorf("error %q, want prefix %q", dto.Error, tc.msg)
			}
		})
	}
}

// TestCiteDeltaApplied: a snapshot dir holding a base snapshot plus a year
// delta must serve citation flows of the grown corpus — byte-identical to
// a study resynthesized with the extra year.
func TestCiteDeltaApplied(t *testing.T) {
	dir := writeDeltaDir(t)
	s := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Metrics = obs.NewRegistry()
	})
	grown := grownFlagship(t)
	for view, name := range routeViews(t, "/v1/cite") {
		rec := post(t, s, "/v1/cite?corpus=flagship", `{"view":"`+view+`"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("view %s: status = %d: %s", view, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), exhibitQueryCSV(t, grown, name)) {
			t.Errorf("view %s: /v1/cite differs from the resynthesized grown corpus", view)
		}
	}
}
