package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/synth"
)

// Workload names, as passed to -workload.
const (
	wPaperReader = "paper_reader"
	wAdhocQuery  = "adhoc_query"
	wStudyChurn  = "study_churn"
)

// workloads lists the workload names. BENCHMARK.json and README.md say
// why each exists.
var workloads = []string{wPaperReader, wAdhocQuery, wStudyChurn}

// The corpus seed whpcd uses for requests without ?seed=. Corpus seeds are
// fixed so that every benchmark seed measures the same corpora; the
// benchmark seed only shapes the traffic.
const defaultCorpusSeed = 2021

// studyKey names one whpcd study (pristine corpora only: harvested
// ?profile= studies are out of scope).
type studyKey struct {
	Corpus string
	Seed   uint64
}

func (k studyKey) String() string { return k.Corpus + "-" + strconv.FormatUint(k.Seed, 10) }

// query is the URL query string selecting the study; the default study
// uses none, as a reader following the README would.
func (k studyKey) query() string {
	var parts []string
	if k.Corpus != "default" {
		parts = append(parts, "corpus="+k.Corpus)
	}
	if k.Seed != defaultCorpusSeed {
		parts = append(parts, "seed="+strconv.FormatUint(k.Seed, 10))
	}
	if len(parts) == 0 {
		return ""
	}
	return "?" + strings.Join(parts, "&")
}

func (k studyKey) config() synth.Config {
	switch k.Corpus {
	case "flagship":
		return synth.FlagshipSeries(k.Seed)
	case "extended":
		return synth.ExtendedSystems(k.Seed)
	default:
		return synth.Default2017(k.Seed)
	}
}

// Request kinds: one per whpcd route the benchmark drives.
const (
	kFAR = iota
	kRoles
	kSensitivity
	kExhibitList
	kExhibit
	kCSV
	kReport
	kTrend
	kCite
	kQuery
)

// request is one distinct HTTP request and what its response must be.
type request struct {
	kind   int
	key    studyKey
	arg    string // exhibit id, CSV export name or trend/cite view
	method string
	path   string
	body   []byte

	// want is the SHA-256 of the expected body (status 200). For the JSON
	// DTO routes it is taken from the first response, after dtoCheck has
	// compared that response's numbers with the library's.
	want     [32]byte
	haveWant bool
	dtoCheck func([]byte) error
	// prepErr records why the library could not produce an expectation;
	// every response to such a request counts as failed.
	prepErr error
}

// plan is a workload's traffic: the distinct requests, the unmeasured
// warm-up list and one pass of the measured list (indexes into reqs). It
// is a pure function of the workload, the seed and the code under test.
type plan struct {
	workload  string
	seed      uint64
	keys      []studyKey // studies the traffic touches
	snapshots bool       // whpcd runs with -snapshot-dir
	reqs      []*request
	index     map[string]int
	warmup    []int
	measured  []int
}

func newPlan(workload string, seed uint64) *plan {
	return &plan{workload: workload, seed: seed, index: make(map[string]int)}
}

// add interns r and returns its index.
func (p *plan) add(r *request) int {
	id := r.method + " " + r.path + "\n" + string(r.body)
	if i, ok := p.index[id]; ok {
		return i
	}
	p.reqs = append(p.reqs, r)
	p.index[id] = len(p.reqs) - 1
	return len(p.reqs) - 1
}

// digest hashes the warm-up and measured operation lists.
func (p *plan) digest() string {
	h := sha256.New()
	for _, list := range [][]int{p.warmup, p.measured} {
		for _, i := range list {
			r := p.reqs[i]
			fmt.Fprintf(h, "%s %s %d\n", r.method, r.path, len(r.body))
			h.Write(r.body)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rng returns the plan's PCG stream for one purpose.
func (p *plan) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(p.seed, 0x77687063^stream))
}

func getReq(k studyKey, kind int, route, arg string) *request {
	return &request{kind: kind, key: k, arg: arg, method: "GET", path: route + k.query()}
}

func postReq(k studyKey, kind int, route, arg string, body []byte) *request {
	return &request{kind: kind, key: k, arg: arg, method: "POST", path: route + k.query(), body: body}
}

// viewQueries maps the /v1/trend and /v1/cite views to the exhibit
// queries whpcd answers them with.
var viewQueries = map[string]string{
	"far": "trend", "retention": "retention",
	"flow": "cite_flow", "gap": "cite_gap",
}

// readRoutes lists every read route of one study: FAR, roles, sensitivity
// (where applicable), the exhibit list, every applicable exhibit, every
// CSV export, the report when withReport is set, and both views of
// /v1/trend and /v1/cite. withDTO selects the JSON DTO routes.
func readRoutes(k studyKey, st *repro.Study, withDTO, withReport bool) []*request {
	var out []*request
	if withDTO {
		out = append(out, getReq(k, kFAR, "/v1/far", ""), getReq(k, kRoles, "/v1/roles", ""))
		if _, err := st.Sensitivity(); !isNotApplicable(err) {
			out = append(out, getReq(k, kSensitivity, "/v1/sensitivity", ""))
		}
		out = append(out, getReq(k, kExhibitList, "/v1/exhibits", ""))
	}
	for _, ex := range st.Exhibits() {
		// Rendering decides applicability, and the bytes are the
		// expectation, so the exhibit is not rendered twice.
		var buf bytes.Buffer
		err := ex.Render(&buf)
		if isNotApplicable(err) {
			continue
		}
		r := getReq(k, kExhibit, "/v1/exhibits/"+ex.ID, ex.ID)
		r.setWant(buf.Bytes(), err)
		out = append(out, r)
	}
	for _, e := range report.CSVExports(st.Dataset()) {
		out = append(out, getReq(k, kCSV, "/v1/csv/"+e.Name, e.Name))
	}
	if withReport {
		out = append(out, getReq(k, kReport, "/v1/report", ""))
	}
	for _, v := range []string{"far", "retention"} {
		out = append(out, postReq(k, kTrend, "/v1/trend", v, []byte(`{"view":"`+v+`"}`)))
	}
	for _, v := range []string{"flow", "gap"} {
		out = append(out, postReq(k, kCite, "/v1/cite", v, []byte(`{"view":"`+v+`"}`)))
	}
	return out
}

func isNotApplicable(err error) bool { return err != nil && errors.Is(err, core.ErrNotApplicable) }

// Pass sizes. Each is a fixed operation count; a measured phase replays
// whole passes until its time is up.
const (
	readerCopies = 20   // paper_reader: each read route this many times per pass
	adhocSpecs   = 1200 // adhoc_query: distinct specs per pass (> whpcd's 256-entry exhibit cache)
	churnChunk   = 5    // study_churn: cold renders per visit
)

// buildPlan constructs the workload's traffic. studies resolves a key to
// the study whpcd will serve for it (synthesized, or opened from the
// snapshot directory for study_churn). scale < 1 shrinks the measured pass
// for tests.
func buildPlan(workload string, seed uint64, scale float64, studies func(studyKey) (*repro.Study, error)) (*plan, error) {
	p := newPlan(workload, seed)
	switch workload {
	case wPaperReader:
		p.keys = []studyKey{{"default", defaultCorpusSeed}, {"flagship", defaultCorpusSeed}}
		var routes []int
		for _, k := range p.keys {
			st, err := studies(k)
			if err != nil {
				return nil, err
			}
			for _, r := range readRoutes(k, st, true, true) {
				routes = append(routes, p.add(r))
			}
		}
		p.warmup = append(p.warmup, routes...)
		copies := max(1, int(readerCopies*scale))
		for c := 0; c < copies; c++ {
			p.measured = append(p.measured, routes...)
		}
		rng := p.rng(1)
		rng.Shuffle(len(p.measured), func(i, j int) { p.measured[i], p.measured[j] = p.measured[j], p.measured[i] })
	case wAdhocQuery:
		p.keys = []studyKey{{"default", defaultCorpusSeed}, {"flagship", defaultCorpusSeed}, {"extended", defaultCorpusSeed}}
		for _, k := range p.keys {
			for _, eq := range repro.ExhibitQueries() {
				q := *eq.Query
				q.Format = "json"
				p.warmup = append(p.warmup, p.add(postReq(k, kQuery, "/v1/query", "", mustJSON(&q))))
			}
		}
		n := max(40, int(adhocSpecs*scale))
		for _, sp := range genSpecs(p.rng(2), p.keys, n) {
			p.measured = append(p.measured, p.add(postReq(sp.key, kQuery, "/v1/query", "", sp.body)))
		}
	case wStudyChurn:
		p.snapshots = true
		p.keys = churnKeys()
		if err := p.buildChurn(scale, studies); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s, %s, %s)", workload, wPaperReader, wAdhocQuery, wStudyChurn)
	}
	return p, nil
}

// buildChurn lays out study_churn's visits. Each key's (route) pool is
// shuffled and split into the same number of chunks, one chunk per visit;
// a round visits every key once in a seeded order. With more keys than
// whpcd's study cap, every visit's first request re-materializes its study,
// and with more (key, route) pairs per pass than the exhibit cache holds,
// every request renders cold in every pass.
func (p *plan) buildChurn(scale float64, studies func(studyKey) (*repro.Study, error)) error {
	rng := p.rng(3)
	pools := make([][]int, len(p.keys))
	chunks := 0
	for i, k := range p.keys {
		st, err := studies(k)
		if err != nil {
			return err
		}
		var pool []int
		for _, r := range readRoutes(k, st, false, false) {
			pool = append(pool, p.add(r))
		}
		pool = append(pool, p.add(getReq(k, kFAR, "/v1/far", "")), p.add(getReq(k, kRoles, "/v1/roles", "")))
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		if scale < 1 {
			pool = pool[:max(churnChunk, int(float64(len(pool))*scale))]
		}
		pools[i] = pool
		chunks = max(chunks, (len(pool)+churnChunk-1)/churnChunk)
	}
	// Warm-up visits every key in the rotation's order, so the first
	// measured visit already finds its study evicted: the exhibit list
	// materializes each study and a query warms the engine; neither route
	// is in the measured pools.
	order := rng.Perm(len(p.keys))
	for _, ki := range order {
		k := p.keys[ki]
		p.warmup = append(p.warmup,
			p.add(getReq(k, kExhibitList, "/v1/exhibits", "")),
			p.add(postReq(k, kQuery, "/v1/query", "", []byte(`{"frame":"slots","group_by":["role"],"aggs":[{"op":"count","as":"n"}]}`))))
	}
	for c := 0; c < chunks; c++ {
		for _, ki := range order {
			pool := pools[ki]
			lo, hi := c*len(pool)/chunks, (c+1)*len(pool)/chunks
			p.measured = append(p.measured, pool[lo:hi]...)
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
