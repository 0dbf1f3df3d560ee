package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/snap"
)

// span is one timed interval of the traced pass. Every span of an
// operation carries the operation's id; root spans have parent -1.
type span struct {
	op         int
	parent     int
	name       string
	phase      string
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// layer is the span name's prefix: serve, query, snap, delta, synth,
// report, cite (or op for roots).
func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// tracer keeps spans in memory; they are summarised when the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(op, parent int, name, phase string) int {
	t.spans = append(t.spans, span{op: op, parent: parent, name: name, phase: phase, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.t0) }

// child runs fn in a span under parent.
func (t *tracer) child(parent int, name string, fn func() error) error {
	p := t.spans[parent]
	i := t.begin(p.op, parent, name, p.phase)
	err := fn()
	t.end(i)
	return err
}

// replayer drives an in-process whpcd through serve.Server's handler, one
// root span per operation. The handler's own span times the real request;
// child spans then redo, through the public library calls, the work the
// response shows the request caused: a materialization when the registry's
// counter moved, a render or query when X-Cache says miss. The children are
// attributed to the handler by accounting, not by nesting: they run after
// it, inside the root span.
type replayer struct {
	p       *plan
	srv     *serve.Server
	snapDir string
	tr      tracer
	chk     *checker
	studies map[studyKey]*repro.Study
	last    metrics
	counts  map[string]float64
	ops     int
}

// traceOut is what the traced pass measured.
type traceOut struct {
	spans  []span
	counts map[string]float64 // work counters summed over the pass
	before metrics            // in-process /metrics before the measured phase
	after  metrics            // and after it
}

// tracePass replays the warm-up list and one pass of the measured list
// in-process.
func tracePass(p *plan, snapDir, logPath string, chk *checker) (*traceOut, error) {
	logw, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logw.Close()
	srv, err := serve.New(serve.Config{DefaultProfile: "none", SnapshotDir: snapDir, AccessLog: logw, ErrorLog: logw})
	if err != nil {
		return nil, err
	}
	rp := &replayer{p: p, srv: srv, snapDir: snapDir, chk: chk,
		studies: make(map[studyKey]*repro.Study), counts: make(map[string]float64)}
	rp.tr.t0 = time.Now()
	rp.last = rp.scrape()
	out := &traceOut{counts: rp.counts}
	rp.phase("warmup", p.warmup)
	out.before = rp.scrape()
	rp.phase("measured", p.measured)
	out.after = rp.scrape()
	out.spans = rp.tr.spans
	return out, nil
}

func (rp *replayer) scrape() metrics {
	rec := httptest.NewRecorder()
	rp.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return parseMetrics(rec.Body)
}

func (rp *replayer) phase(name string, list []int) {
	for i, ri := range list {
		rp.op(name, i, rp.p.reqs[ri])
	}
}

func (rp *replayer) op(phase string, i int, r *request) {
	root := rp.tr.begin(rp.ops, -1, "op", phase)
	rp.ops++
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req := httptest.NewRequest(r.method, r.path, body)
	rec := httptest.NewRecorder()
	h := rp.srv.Handler()
	_ = rp.tr.child(root, "serve.handler", func() error { h.ServeHTTP(rec, req); return nil })
	rp.chk.check(phase+" (traced)", i, r, rec.Code, rec.Body.Bytes(), nil)

	m := rp.scrape()
	if m.sum("whpcd_studies_materialized_total") > rp.last.sum("whpcd_studies_materialized_total") {
		fromSnap := m.sum("whpcd_snapshot_loads_total") > rp.last.sum("whpcd_snapshot_loads_total")
		rp.materialize(root, r.key, fromSnap)
	}
	rp.last = m
	if rec.Header().Get("X-Cache") == serve.CacheMiss {
		rp.render(root, r)
	}
	rp.tr.end(root)
}

// materialize redoes a study materialization: a snapshot open plus its
// year deltas, or a synthesis plus frame build (with the citation graph
// timed as a nested span).
func (rp *replayer) materialize(root int, k studyKey, fromSnap bool) {
	var st *repro.Study
	if fromSnap {
		path := filepath.Join(rp.snapDir, snap.CorpusFileName(k.Corpus, k.Seed))
		if fi, err := os.Stat(path); err == nil {
			rp.counts["snap.bytes"] += float64(fi.Size())
		}
		err := rp.tr.child(root, "snap.open", func() (err error) {
			st, err = repro.OpenSnapshotFile(path)
			return err
		})
		rp.counts["snap.opens"]++
		if err != nil {
			logf("replay: %v", err)
			return
		}
		deltas, _ := filepath.Glob(filepath.Join(rp.snapDir, snap.DeltaFilePattern(k.Corpus, k.Seed)))
		sort.Strings(deltas)
		for _, d := range deltas {
			rows := frameRows(st)
			if err := rp.tr.child(root, "delta.apply", func() error { return st.ApplyDeltaFile(d) }); err != nil {
				logf("replay: %v", err)
			}
			rp.counts["delta.applies"]++
			rp.counts["delta.rows_added"] += float64(frameRows(st) - rows)
		}
	} else {
		sb := rp.tr.begin(rp.tr.spans[root].op, root, "synth.build", rp.tr.spans[root].phase)
		s, err := repro.NewStudyFromConfig(k.config())
		if err == nil {
			s.Frames()
			_ = rp.tr.child(sb, "cite.graph", func() error { s.CitationGraph(); return nil })
			st = s
		}
		rp.tr.end(sb)
		rp.counts["synth.builds"]++
		if err != nil {
			logf("replay: %v", err)
			return
		}
	}
	rp.studies[k] = st
}

func frameRows(st *repro.Study) int {
	fs := st.Frames()
	n := 0
	for _, name := range fs.Names() {
		f, _ := fs.Frame(name)
		n += f.NumRows
	}
	return n
}

// render redoes the work of a cache miss with the library call whpcd's
// handler makes for the route.
func (rp *replayer) render(root int, r *request) {
	st := rp.studies[r.key]
	if st == nil {
		logf("replay: no study for %s", r.key)
		return
	}
	var out []byte
	reportSpan := func(fn func(w io.Writer) error) {
		var buf bytes.Buffer
		if err := rp.tr.child(root, "report.render", func() error { return fn(&buf) }); err != nil {
			logf("replay: %s %s: %v", r.method, r.path, err)
		}
		rp.counts["report.renders"]++
		rp.counts["report.bytes"] += float64(buf.Len())
	}
	switch r.kind {
	case kFAR:
		reportSpan(func(io.Writer) error { st.FAR(); return nil })
	case kRoles:
		reportSpan(func(io.Writer) error { st.Roles(); return nil })
	case kSensitivity:
		reportSpan(func(io.Writer) error { _, err := st.Sensitivity(); return err })
	case kExhibitList:
		reportSpan(func(io.Writer) error { st.Exhibits(); return nil })
	case kExhibit:
		reportSpan(func(w io.Writer) error {
			ex, ok := st.Exhibit(r.arg)
			if !ok {
				return fmt.Errorf("no exhibit %q", r.arg)
			}
			return ex.Render(w)
		})
	case kCSV:
		reportSpan(func(w io.Writer) error {
			exp, ok := report.CSVExportByName(st.Dataset(), r.arg)
			if !ok {
				return fmt.Errorf("no csv export %q", r.arg)
			}
			rows, err := exp.Rows()
			if err != nil {
				return err
			}
			return csv.NewWriter(w).WriteAll(rows)
		})
	case kReport:
		reportSpan(st.WriteReport)
	case kTrend, kCite, kQuery:
		var q *query.Query
		var err error
		if r.kind == kQuery {
			err = rp.tr.child(root, "query.parse", func() (err error) { q, err = query.Parse(r.body); return err })
		} else if eq, ok := repro.ExhibitQueryByName(viewQueries[r.arg]); ok {
			q = eq.Query
		} else {
			err = fmt.Errorf("no exhibit query for view %q", r.arg)
		}
		var res *query.Result
		if err == nil {
			err = rp.tr.child(root, "query.run", func() (err error) { res, err = st.Query(q); return err })
		}
		if err == nil {
			err = rp.tr.child(root, "query.encode", func() (err error) { out, _, err = res.Encode(q.Format); return err })
			rp.counts["query.result_bytes"] += float64(len(out))
		}
		if err == nil {
			// Rows scanned, counted outside the timed spans.
			if pt, perr := query.ExecPartial(st.Frames(), q); perr == nil {
				rp.counts["query.rows_scanned"] += float64(pt.Scanned())
			}
		}
		if err != nil {
			rp.counts["query.errors"]++
			logf("replay: %s %s: %v", r.method, r.path, err)
		}
	}
}

// layerStat sums one layer's spans in one phase.
type layerStat struct {
	n    int
	self time.Duration
}

// summary is the traced pass reduced to per-phase, per-layer self times.
type summary struct {
	layers  map[string]map[string]*layerStat // phase -> layer -> stat
	handler map[string]time.Duration         // phase -> total handler time
	library map[string]time.Duration         // phase -> replayed library time
	// handlerMeasured and selfMeasured are per-operation times of the
	// measured phase: the handler span, and the handler minus the
	// replayed library spans attributed to it.
	handlerMeasured []time.Duration
	selfMeasured    []time.Duration
	outside         int // child spans not inside their parent
	libMeasured     int // library spans in the measured phase
}

func summarize(spans []span) *summary {
	s := &summary{layers: map[string]map[string]*layerStat{}, handler: map[string]time.Duration{}, library: map[string]time.Duration{}}
	childTime := make([]time.Duration, len(spans))
	for _, sp := range spans {
		if sp.parent >= 0 {
			childTime[sp.parent] += sp.dur()
			p := spans[sp.parent]
			if sp.start < p.start || sp.end > p.end || sp.op != p.op {
				s.outside++
			}
		}
	}
	var handler, library time.Duration
	flush := func() {
		s.handlerMeasured = append(s.handlerMeasured, handler)
		s.selfMeasured = append(s.selfMeasured, handler-library)
	}
	for i, sp := range spans {
		if sp.parent < 0 {
			if i > 0 && spans[i-1].phase == "measured" {
				flush()
			}
			handler, library = 0, 0
			continue
		}
		ph := s.layers[sp.phase]
		if ph == nil {
			ph = map[string]*layerStat{}
			s.layers[sp.phase] = ph
		}
		st := ph[sp.layer()]
		if st == nil {
			st = &layerStat{}
			ph[sp.layer()] = st
		}
		st.n++
		st.self += sp.dur() - childTime[i]
		if sp.name == "serve.handler" {
			s.handler[sp.phase] += sp.dur()
			handler = sp.dur()
		} else if spans[sp.parent].parent < 0 {
			library += sp.dur()
			s.library[sp.phase] += sp.dur()
			if sp.phase == "measured" {
				s.libMeasured++
			}
		}
	}
	if len(spans) > 0 && spans[len(spans)-1].phase == "measured" {
		flush()
	}
	return s
}

// share is a layer's self time in a phase over the phase's handler time.
func (s *summary) share(phase, layer string) float64 {
	st := s.layers[phase][layer]
	if st == nil || s.handler[phase] == 0 {
		return 0
	}
	return float64(st.self) / float64(s.handler[phase])
}

// table prints each phase's per-layer span counts, self time and share of
// serve.handler time. The serve row's self time is the handler time minus
// the replayed library time attributed to it.
func (s *summary) table(w io.Writer, workload string) {
	for _, phase := range []string{"warmup", "measured"} {
		ph := s.layers[phase]
		fmt.Fprintf(w, "trace %s/%s: serve.handler total %.3f ms\n", workload, phase, ms(s.handler[phase]))
		var names []string
		for l := range ph {
			names = append(names, l)
		}
		slices.Sort(names)
		for _, l := range names {
			st := ph[l]
			self := st.self
			if l == "serve" {
				self -= s.library[phase]
			}
			fmt.Fprintf(w, "  %-7s spans %6d  self %10.3f ms  share of serve.handler %6.1f%%\n",
				l, st.n, ms(self), 100*float64(self)/float64(max(s.handler[phase], 1)))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durMedian(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
