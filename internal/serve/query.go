package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"repro"
	"repro/internal/query"
)

// maxQueryBytes bounds a POST body on /v1/query, /v1/trend and /v1/cite.
// Real specs are a few hundred bytes; anything larger is rejected with 413
// before parsing.
const maxQueryBytes = 64 << 10

// queryErrorDTO is the structured error envelope every failure on the POST
// query routes returns, so clients can branch on status without scraping
// prose.
type queryErrorDTO struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	// Estimate and Limit are set only on a query refused as too large:
	// its estimated output groups and the bound they exceed.
	Estimate uint64 `json:"estimate,omitempty"`
	Limit    uint64 `json:"limit,omitempty"`
}

// writeQueryError emits the JSON error envelope with the given status.
func writeQueryError(w http.ResponseWriter, status int, msg string) {
	writeQueryErrorDTO(w, queryErrorDTO{Error: msg, Status: status})
}

func writeQueryErrorDTO(w http.ResponseWriter, dto queryErrorDTO) {
	status, msg := dto.Status, dto.Error
	body, err := marshalJSON(dto)
	if err != nil {
		http.Error(w, msg, status)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeQueryFailure is the POST routes' error writer for serveCached: spec
// validation failures are the client's 400, queries that match no rows or
// whose estimated output exceeds the engine's bound 422 (the latter with
// the estimate in the envelope), and everything else takes writeError's
// status mapping — all inside the JSON envelope.
func writeQueryFailure(w http.ResponseWriter, err error) {
	var tooLarge *query.TooLargeError
	switch {
	case errors.Is(err, query.ErrInvalid):
		writeQueryError(w, http.StatusBadRequest, err.Error())
	case errors.As(err, &tooLarge):
		writeQueryErrorDTO(w, queryErrorDTO{Error: err.Error(), Status: http.StatusUnprocessableEntity,
			Estimate: tooLarge.Groups, Limit: tooLarge.Limit})
	case errors.Is(err, query.ErrEmpty):
		writeQueryError(w, http.StatusUnprocessableEntity, err.Error())
	default:
		writeQueryError(w, errorStatus(err), err.Error())
	}
}

// readBody reads a POST body capped at maxQueryBytes. It answers 413 (naming
// what was too large) or 400 itself and returns ok=false when the handler
// should bail.
func readBody(w http.ResponseWriter, r *http.Request, what string) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeQueryError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("%s exceeds %d bytes", what, maxQueryBytes))
			return nil, false
		}
		writeQueryError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return nil, false
	}
	return body, true
}

// serveQuery answers one columnar query against the request's study
// through serveCached. The cache key is kind|id|study, where id must
// determine the query (its canonical hash, or a view name); the
// revision-qualified study identity means applying a delta invalidates
// exactly the renders whose inputs changed. Errors are never cached, and
// every success counts on whpcd_queries_total{frame}.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, key StudyKey, kind, id string, q *query.Query, format string) {
	st, err := s.studies.Get(r.Context(), key)
	if err != nil {
		writeQueryError(w, errorStatus(err),
			fmt.Sprintf("materializing study (%s): %v", key, err))
		return
	}
	// The content type is a pure function of the format, so a cache hit
	// can set it without re-running the query.
	contentType := "application/json"
	if format == query.FormatCSV {
		contentType = "text/csv; charset=utf-8"
	}
	cacheKey := kind + "|" + id + "|" + cacheID(key, st)
	if s.serveCached(w, r, cacheKey, contentType, writeQueryFailure, func() ([]byte, error) {
		res, err := st.Query(q)
		if err != nil {
			return nil, err
		}
		b, _, err := res.Encode(format)
		return b, err
	}) {
		s.met.queries.With(q.Frame).Inc()
	}
}

// handleQuery serves POST /v1/query: an ad-hoc columnar query against the
// request's study. The spec arrives as JSON (see query.Parse); results are
// memoized through the exhibit cache keyed by the canonicalized spec hash,
// so semantically identical specs — whatever their field order or
// spelling — share one execution. Validation failures return 400, queries
// that match no rows 422, both as structured JSON.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	key, err := s.parseStudyKey(r)
	if err != nil {
		writeQueryError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, ok := readBody(w, r, "query spec")
	if !ok {
		return
	}
	q, err := query.Parse(body)
	if err != nil {
		writeQueryError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveQuery(w, r, key, "query", q.Hash(), q, q.Format)
}

// viewRoute is one POST route that serves a fixed set of exhibit queries
// as CSV, chosen by an optional JSON body {"view": NAME}; an empty body or
// view serves the default. Every view's query is verified byte-for-byte
// against its report CSV family, so the route inherits the reproduction's
// correctness anchor.
type viewRoute struct {
	path  string // mux path, e.g. /v1/trend
	noun  string // names the route in error texts and cache keys
	def   string // view served when the body names none
	views map[string]repro.ExhibitQuery

	have     string // sorted view names, as error texts list them
	tooLarge string // readBody's name for an oversized body
}

// viewRoutes are the view-selecting POST routes:
//   - /v1/trend: "far" (year-over-year female author ratio trajectories)
//     or "retention" (cohort retention of role-holders across editions);
//   - /v1/cite: "flow" (observed-versus-null citation flow per citing-team
//     gender composition) or "gap" (the same comparison per
//     conference-year).
var viewRoutes = []*viewRoute{
	newViewRoute("/v1/trend", "trend", "far", map[string]string{"far": "trend", "retention": "retention"}),
	newViewRoute("/v1/cite", "cite", "flow", map[string]string{"flow": "cite_flow", "gap": "cite_gap"}),
}

// newViewRoute resolves each view's exhibit query once, so a request only
// looks its view up. A name missing from repro.ExhibitQueries is a
// programming error and panics at package initialization.
func newViewRoute(path, noun, def string, names map[string]string) *viewRoute {
	vr := &viewRoute{path: path, noun: noun, def: def, views: make(map[string]repro.ExhibitQuery, len(names)),
		tooLarge: noun + " request"}
	sorted := make([]string, 0, len(names))
	for view, name := range names {
		eq, ok := repro.ExhibitQueryByName(name)
		if !ok {
			panic(fmt.Sprintf("serve: %s view %q: exhibit query %q is not registered", path, view, name))
		}
		vr.views[view] = eq
		sorted = append(sorted, view)
	}
	sort.Strings(sorted)
	vr.have = fmt.Sprint(sorted)
	return vr
}

// viewRequestDTO is the optional body of a view route.
type viewRequestDTO struct {
	View string `json:"view"`
}

// handleView serves one view route. Execution and caching go through
// serveQuery, keyed by route noun and view name.
func (s *Server) handleView(vr *viewRoute) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key, err := s.parseStudyKey(r)
		if err != nil {
			writeQueryError(w, http.StatusBadRequest, err.Error())
			return
		}
		body, ok := readBody(w, r, vr.tooLarge)
		if !ok {
			return
		}
		view := vr.def
		if len(bytes.TrimSpace(body)) > 0 {
			var req viewRequestDTO
			if err := json.Unmarshal(body, &req); err != nil {
				writeQueryError(w, http.StatusBadRequest, fmt.Sprintf("parsing %s request: %v", vr.noun, err))
				return
			}
			if req.View != "" {
				view = req.View
			}
		}
		eq, ok := vr.views[view]
		if !ok {
			writeQueryError(w, http.StatusBadRequest,
				fmt.Sprintf("unknown %s view %q (have %s)", vr.noun, view, vr.have))
			return
		}
		s.serveQuery(w, r, key, vr.noun, view, eq.Query, query.FormatCSV)
	}
}
