package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"repro"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faulty"
	"repro/internal/stats"
)

// parseStudyKey reads the seed, corpus, and profile query parameters,
// falling back to the server defaults. Invalid values return an error the
// handler reports as 400.
func (s *Server) parseStudyKey(r *http.Request) (StudyKey, error) {
	q := r.URL.Query()
	key := StudyKey{Seed: s.cfg.DefaultSeed, Corpus: CorpusDefault, Profile: s.cfg.DefaultProfile}
	if key.Profile == "none" {
		key.Profile = ""
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return key, fmt.Errorf("invalid seed %q: want an unsigned integer", v)
		}
		key.Seed = n
	}
	if v := q.Get("corpus"); v != "" {
		switch v {
		case CorpusDefault, CorpusFlagship, CorpusExtended:
			key.Corpus = v
		default:
			return key, fmt.Errorf("unknown corpus %q (have %v)", v, Corpora())
		}
	}
	if v := q.Get("profile"); v != "" {
		if v == "none" {
			key.Profile = ""
		} else {
			if _, err := faulty.ByName(v); err != nil {
				return key, err
			}
			key.Profile = v
		}
	}
	return key, nil
}

// study resolves the request's study, writing the error response itself
// (400 for bad parameters, mapped status for a failed materialization) and
// returning ok=false when the handler should bail.
func (s *Server) study(w http.ResponseWriter, r *http.Request) (Resident, StudyKey, bool) {
	key, err := s.parseStudyKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return Resident{}, key, false
	}
	res, ok := s.resident(w, r, key, s.writeError)
	return res, key, ok
}

// resident materializes key's study, answering a failure through fail
// (plain text on the GET routes, the JSON envelope on the POST routes).
// The request context bounds the wait on a shared in-flight
// materialization.
func (s *Server) resident(w http.ResponseWriter, r *http.Request, key StudyKey, fail func(http.ResponseWriter, error)) (Resident, bool) {
	res, err := s.studies.Get(r.Context(), key)
	if err != nil {
		fail(w, fmt.Errorf("materializing study (%s): %w", key, err))
		return Resident{}, false
	}
	return res, true
}

// serveCached answers the request from the exhibit cache, rendering with
// compute on a miss, and is the one place a response's X-Cache header is
// set. The cache key must uniquely determine the bytes (it embeds the
// study key and route); X-Cache reports hit, miss, coalesced, or stale.
// Render time for actual computes feeds whpcd_render_seconds. The request
// context propagates into the render: an expired deadline aborts before
// computing (504), and a stale-store copy is served with a Warning header
// (and an error-log line) when a re-render fails. A failed lookup is
// answered through fail — plain text on the GET routes, the JSON envelope
// on the POST routes. It reports whether it served the bytes.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, cacheKey, contentType string, fail func(http.ResponseWriter, error), compute func() ([]byte, error)) bool {
	body, outcome, err := s.cache.Get(r.Context(), cacheKey, func(ctx context.Context) ([]byte, error) {
		if injected, ferr := s.fault(ctx, chaos.PointRender); injected {
			return nil, ferr
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		start := s.clock.Now()
		b, err := compute()
		s.met.renders.ObserveDuration(s.clock.Now().Sub(start))
		return b, err
	})
	if err != nil {
		fail(w, err)
		return false
	}
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	h.Set("X-Cache", outcome)
	if outcome == CacheStale {
		h.Set("Warning", `110 whpcd "stale: re-render failed; bytes are from an earlier identical render"`)
		s.logError(fmt.Sprintf("stale serve for %s", cacheKey))
	}
	_, _ = w.Write(body)
	return true
}

// marshalJSON renders v with a trailing newline, matching curl-friendly
// output.
func marshalJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// --- DTOs -------------------------------------------------------------

// studyDTO names the study a JSON payload was computed from.
type studyDTO struct {
	Seed    uint64 `json:"seed"`
	Corpus  string `json:"corpus"`
	Profile string `json:"profile"`
}

func dtoStudy(key StudyKey) studyDTO {
	p := key.Profile
	if p == "" {
		p = "none"
	}
	return studyDTO{Seed: key.Seed, Corpus: key.Corpus, Profile: p}
}

// proportionDTO is a k-of-n proportion; ratio is null when no trials carry
// known gender (NaN is unrepresentable in JSON).
type proportionDTO struct {
	Women int `json:"women"`
	Known int `json:"known"`
	Ratio any `json:"ratio"`
}

func dtoProportion(p stats.Proportion) proportionDTO {
	d := proportionDTO{Women: p.K, Known: p.N}
	if r := p.Ratio(); !math.IsNaN(r) {
		d.Ratio = r
	}
	return d
}

type confFARDTO struct {
	Conference string        `json:"conference"`
	Name       string        `json:"name"`
	FAR        proportionDTO `json:"far"`
	Unknown    int           `json:"unknown"`
}

type farDTO struct {
	Study         studyDTO      `json:"study"`
	Overall       proportionDTO `json:"overall"`
	Unknown       int           `json:"unknown"`
	UniqueAuthors int           `json:"unique_authors"`
	TotalSlots    int           `json:"total_slots"`
	PerConference []confFARDTO  `json:"per_conference"`
}

type roleCellDTO struct {
	Conference string        `json:"conference"`
	Name       string        `json:"name"`
	Role       string        `json:"role"`
	Ratio      proportionDTO `json:"ratio"`
}

type roleOverallDTO struct {
	Role  string        `json:"role"`
	Ratio proportionDTO `json:"ratio"`
}

type rolesDTO struct {
	Study       studyDTO         `json:"study"`
	Overall     []roleOverallDTO `json:"overall"`
	Cells       []roleCellDTO    `json:"cells"`
	OverallLead proportionDTO    `json:"overall_lead"`
	OverallLast proportionDTO    `json:"overall_last"`
}

type observationDTO struct {
	Name        string  `json:"name"`
	Effect      float64 `json:"effect"`
	P           float64 `json:"p"`
	Significant bool    `json:"significant"`
}

func dtoObservations(obs []core.Observation) []observationDTO {
	out := make([]observationDTO, 0, len(obs))
	for _, o := range obs {
		out = append(out, observationDTO{Name: o.Name, Effect: o.Effect, P: o.P, Significant: o.Significant})
	}
	return out
}

type sensitivityDTO struct {
	Study        studyDTO         `json:"study"`
	UnknownCount int              `json:"unknown_count"`
	Stable       bool             `json:"stable"`
	Flips        []string         `json:"flips"`
	Baseline     []observationDTO `json:"baseline"`
	AllWomen     []observationDTO `json:"all_women"`
	AllMen       []observationDTO `json:"all_men"`
}

type exhibitDTO struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// --- handlers ---------------------------------------------------------

// handleHealthz reports liveness; it touches no study so it stays cheap
// and never blocks on a materialization.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// handleFAR serves the §3.1 female author ratios as JSON.
func (s *Server) handleFAR(w http.ResponseWriter, r *http.Request) {
	res, key, ok := s.study(w, r)
	if !ok {
		return
	}
	s.serveCached(w, r, "far|"+res.ID, "application/json; charset=utf-8", s.writeError, func() ([]byte, error) {
		far := res.Study.FAR()
		dto := farDTO{
			Study:         dtoStudy(key),
			Overall:       dtoProportion(far.Overall),
			Unknown:       far.Unknown,
			UniqueAuthors: far.UniqueN,
			TotalSlots:    far.TotalSlots,
			PerConference: make([]confFARDTO, 0, len(far.PerConf)),
		}
		for _, c := range far.PerConf {
			dto.PerConference = append(dto.PerConference, confFARDTO{
				Conference: string(c.Conf), Name: c.Name,
				FAR: dtoProportion(c.Ratio), Unknown: c.Unknown,
			})
		}
		return marshalJSON(dto)
	})
}

// handleRoles serves the Fig 1 role-representation matrix as JSON. The
// overall map iterates dataset.Roles() order so the payload is
// byte-deterministic.
func (s *Server) handleRoles(w http.ResponseWriter, r *http.Request) {
	res, key, ok := s.study(w, r)
	if !ok {
		return
	}
	s.serveCached(w, r, "roles|"+res.ID, "application/json; charset=utf-8", s.writeError, func() ([]byte, error) {
		tab := res.Study.Roles()
		dto := rolesDTO{
			Study:       dtoStudy(key),
			Overall:     make([]roleOverallDTO, 0, len(tab.Overall)),
			Cells:       make([]roleCellDTO, 0, len(tab.Cells)),
			OverallLead: dtoProportion(tab.OverallLead),
			OverallLast: dtoProportion(tab.OverallLast),
		}
		for _, role := range dataset.Roles() {
			if p, ok := tab.Overall[role]; ok {
				dto.Overall = append(dto.Overall, roleOverallDTO{Role: role.String(), Ratio: dtoProportion(p)})
			}
		}
		for _, c := range tab.Cells {
			dto.Cells = append(dto.Cells, roleCellDTO{
				Conference: string(c.Conf), Name: c.Name,
				Role: c.Role.String(), Ratio: dtoProportion(c.Ratio),
			})
		}
		return marshalJSON(dto)
	})
}

// handleSensitivity serves the unknown-gender sensitivity analysis as JSON.
func (s *Server) handleSensitivity(w http.ResponseWriter, r *http.Request) {
	res, key, ok := s.study(w, r)
	if !ok {
		return
	}
	s.serveCached(w, r, "sensitivity|"+res.ID, "application/json; charset=utf-8", s.writeError, func() ([]byte, error) {
		res, err := res.Study.Sensitivity()
		if err != nil {
			return nil, err
		}
		dto := sensitivityDTO{
			Study:        dtoStudy(key),
			UnknownCount: res.UnknownCount,
			Stable:       res.Stable,
			Flips:        res.Flips,
			Baseline:     dtoObservations(res.Baseline),
			AllWomen:     dtoObservations(res.AllWomen),
			AllMen:       dtoObservations(res.AllMen),
		}
		if dto.Flips == nil {
			dto.Flips = []string{}
		}
		return marshalJSON(dto)
	})
}

// handleExhibitList serves the study's exhibit catalog (IDs and titles).
func (s *Server) handleExhibitList(w http.ResponseWriter, r *http.Request) {
	res, key, ok := s.study(w, r)
	if !ok {
		return
	}
	s.serveCached(w, r, "exhibits|"+res.ID, "application/json; charset=utf-8", s.writeError, func() ([]byte, error) {
		exhibits := res.Study.Exhibits()
		out := make([]exhibitDTO, 0, len(exhibits))
		for _, e := range exhibits {
			out = append(out, exhibitDTO{ID: e.ID, Title: e.Title})
		}
		return marshalJSON(struct {
			Study    studyDTO     `json:"study"`
			Exhibits []exhibitDTO `json:"exhibits"`
		}{dtoStudy(key), out})
	})
}

// handleExhibit serves one exhibit as text, exactly as WriteReport would
// print its section body.
func (s *Server) handleExhibit(w http.ResponseWriter, r *http.Request) {
	res, _, ok := s.study(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	ex, ok := res.Study.Exhibit(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown exhibit %q (list them at /v1/exhibits)", id), http.StatusNotFound)
		return
	}
	s.serveCached(w, r, "exhibit|"+id+"|"+res.ID, "text/plain; charset=utf-8", s.writeError, func() ([]byte, error) {
		var buf bytes.Buffer
		if err := ex.Render(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// handleReport serves the complete report — byte-identical to
// Study.WriteReport on the same study.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	res, _, ok := s.study(w, r)
	if !ok {
		return
	}
	s.serveCached(w, r, "report|"+res.ID, "text/plain; charset=utf-8", s.writeError, func() ([]byte, error) {
		var buf bytes.Buffer
		if err := res.Study.WriteReport(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// csvFamilies are the exhibit families /v1/csv serves, in the order an
// unknown name's 404 lists them.
var csvFamilies = repro.ExhibitFamilies()

// handleCSV serves one machine-readable exhibit family as CSV; the name
// segment matches the file stems whpc -csv writes (with or without the
// .csv suffix), and the body is the same Study.ExhibitCSV bytes. Family names are static, so an unknown name is answered
// 404 before any study is materialized.
func (s *Server) handleCSV(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimSuffix(r.PathValue("name"), ".csv")
	if !slices.Contains(csvFamilies, name) {
		http.Error(w, fmt.Sprintf("unknown csv export %q (have %v)", name, csvFamilies), http.StatusNotFound)
		return
	}
	res, _, ok := s.study(w, r)
	if !ok {
		return
	}
	s.serveFamily(w, r, res, name, s.writeError)
}

// serveFamily serves one exhibit family of the resident study as CSV. It
// is the one render path of /v1/csv/<family> and of the /v1/trend and
// /v1/cite views, which alias families: the cache entry is
// csv|<family>|<Resident.ID>, so a family renders once per study whichever
// route asks first. It reports whether it served the bytes.
func (s *Server) serveFamily(w http.ResponseWriter, r *http.Request, res Resident, family string, fail func(http.ResponseWriter, error)) bool {
	return s.serveCached(w, r, "csv|"+family+"|"+res.ID, "text/csv; charset=utf-8", fail, func() ([]byte, error) {
		return res.Study.ExhibitCSV(family)
	})
}
