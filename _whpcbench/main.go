// Command whpcbench is whpcd's benchmark. It runs one workload against a
// real whpcd process over loopback from this single load-generator
// process (one keep-alive connection, GOMAXPROCS=1, closed loop), checks
// every response against the library's own rendering, and prints the
// end-to-end metrics; with -trace 1 it also replays the traffic in-process
// with spans around each layer's public calls and prints per-layer
// metrics instead. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds whpcd and this program first:
//
//	bash _whpcbench/run.sh --workload adhoc_query --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro"
	"repro/internal/delta"
	"repro/internal/snap"
	"repro/internal/synth"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	whpcd    string
	work     string
}

// boots is how many fresh whpcd processes a -trace 0 run measures.
const boots = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("whpcbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper_reader, adhoc_query or study_churn")
	fs.Uint64Var(&o.seed, "seed", 1, "traffic seed")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase in seconds (whole passes)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	fs.StringVar(&o.whpcd, "whpcd", "", "whpcd binary to benchmark")
	fs.StringVar(&o.work, "work", "", "directory for the run's scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.whpcd == "" || o.work == "" {
		logf("whpcbench: need -workload, -whpcd, -work, -seconds >= 1 and -trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		logf("whpcbench: %v", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		logf("whpcbench: %v", err)
		return 1
	}
	defer os.RemoveAll(dir)
	res, err := execute(o, dir, stdout)
	if err != nil {
		logf("whpcbench: %v", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("whpcbench: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// prepare builds the workload's plan and the expectation of every request.
// For study_churn it first writes the snapshot directory with the code
// under test.
func prepare(workload string, seed uint64, scale float64, snapDir string) (*plan, error) {
	cache := make(map[studyKey]*repro.Study)
	studies := func(k studyKey) (*repro.Study, error) {
		if st, ok := cache[k]; ok {
			return st, nil
		}
		var st *repro.Study
		var err error
		if workload == wStudyChurn {
			st, err = openSnapshot(snapDir, k)
		} else {
			st, err = repro.NewStudyFromConfig(k.config())
		}
		if err != nil {
			return nil, fmt.Errorf("study %s: %w", k, err)
		}
		cache[k] = st
		return st, nil
	}
	if workload == wStudyChurn {
		if err := writeSnapshots(snapDir, churnKeys()); err != nil {
			return nil, err
		}
	}
	p, err := buildPlan(workload, seed, scale, studies)
	if err != nil {
		return nil, err
	}
	p.expect(studies)
	return p, nil
}

// churnKeys are study_churn's studies: twice the study cap.
func churnKeys() []studyKey {
	var keys []studyKey
	for _, c := range []string{"default", "flagship"} {
		for s := uint64(0); s < 4; s++ {
			keys = append(keys, studyKey{c, defaultCorpusSeed + s})
		}
	}
	return keys
}

// deltaYear is the SC edition appended to every flagship snapshot.
const deltaYear = 2021

// writeSnapshots writes a snapshot per key, plus an SC'21 year delta for
// flagship keys, as synthgen -snap and -delta-year would.
func writeSnapshots(dir string, keys []studyKey) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, k := range keys {
		st, err := repro.NewStudyFromConfig(k.config())
		if err != nil {
			return err
		}
		if err := st.SaveSnapshot(filepath.Join(dir, snap.CorpusFileName(k.Corpus, k.Seed))); err != nil {
			return err
		}
		if k.Corpus != "flagship" {
			continue
		}
		spec, err := synth.YearSpec(k.config(), "SC", deltaYear)
		if err != nil {
			return err
		}
		yd, base, err := synth.GenerateYearDelta(k.config(), spec)
		if err != nil {
			return err
		}
		if err := delta.WriteFile(filepath.Join(dir, snap.DeltaFileName(k.Corpus, k.Seed, deltaYear)), yd, base.Data); err != nil {
			return err
		}
	}
	return nil
}

// openSnapshot materializes a key the way whpcd's snapshot path does.
func openSnapshot(dir string, k studyKey) (*repro.Study, error) {
	st, err := repro.OpenSnapshotFile(filepath.Join(dir, snap.CorpusFileName(k.Corpus, k.Seed)))
	if err != nil {
		return nil, err
	}
	deltas, err := filepath.Glob(filepath.Join(dir, snap.DeltaFilePattern(k.Corpus, k.Seed)))
	if err != nil {
		return nil, err
	}
	sort.Strings(deltas)
	for _, d := range deltas {
		if err := st.ApplyDeltaFile(d); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// boot is what one whpcd process measured.
type boot struct {
	setup     float64 // seconds from launch to the end of warm-up
	m         measured
	clientCPU time.Duration
	nvcsw     int64
	hwmKiB    int64
	before    metrics // whpcd /metrics before the measured phase
	after     metrics // and after it
	gcs       int     // gctrace lines during the measured phase
	errLines  int     // error-log lines over whpcd's life
}

// segmentsPerBoot is how many stretches of whole passes each boot's
// measured phase is cut into.
const segmentsPerBoot = 4

// runUntraced boots a fresh whpcd n times. Each boot is warmed up and then
// measured for an equal share of o.seconds, in whole passes: the run
// samples several processes as well as several stretches of time.
func runUntraced(o options, p *plan, dir, snapDir string, n int, chk *checker) ([]boot, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if p.snapshots {
		args = append(args, "-snapshot-dir", snapDir)
	}
	var env []string
	if o.trace == 1 {
		env = append(env, "GODEBUG=gctrace=1")
	}
	slice := time.Duration(o.seconds) * time.Second / time.Duration(n)
	var out []boot
	for i := 0; i < n; i++ {
		logPath := filepath.Join(dir, fmt.Sprintf("whpcd-%d.log", i))
		d, err := startDaemon(o.whpcd, args, env, logPath)
		if err != nil {
			return nil, err
		}
		c := newClient(d.addr)
		c.runList(p, p.warmup, "warmup", chk)
		b := boot{setup: time.Since(d.started).Seconds()}
		err = b.measure(p, d, c, slice, logPath, chk)
		c.close()
		if serr := d.stop(); serr != nil && err == nil {
			err = serr
		}
		b.errLines = countLines(logPath, 0, `"level":"error"`, false)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func (b *boot) measure(p *plan, d *daemon, c *client, slice time.Duration, logPath string, chk *checker) error {
	var err error
	if b.before, err = c.scrape(); err != nil {
		return err
	}
	fi, err := os.Stat(logPath)
	if err != nil {
		return err
	}
	runtime.GC()
	debug.FreeOSMemory()
	p0, err := readProc(d.pid())
	if err != nil {
		return err
	}
	c0 := selfCPU()
	pid := d.pid()
	b.m = c.runMeasured(p, slice, slice/segmentsPerBoot, chk, func() (time.Duration, float64) {
		ps, _ := readProc(pid)
		return ps.cpu, stealSeconds()
	})
	b.clientCPU = selfCPU() - c0
	p1, err := readProc(d.pid())
	if err != nil {
		return err
	}
	b.nvcsw = p1.nvcsw - p0.nvcsw
	b.hwmKiB = p1.hwmKiB
	b.gcs = countLines(logPath, fi.Size(), "gc ", true)
	b.after, err = c.scrape()
	return err
}

func execute(o options, dir string, stdout io.Writer) (*result, error) {
	if !slices.Contains(workloads, o.workload) {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	snapDir := filepath.Join(dir, "snapshots")
	p, err := prepare(o.workload, o.seed, 1, snapDir)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	fmt.Fprintf(stdout, "workload %s seed %d: ops digest %s, %d distinct requests, %d warm-up ops, %d ops per pass\n",
		o.workload, o.seed, p.digest(), len(p.reqs), len(p.warmup), len(p.measured))

	chk := &checker{}
	n := boots
	if o.trace == 1 {
		n = 1 // set-up time is not a per-layer metric
	}
	bs, err := runUntraced(o, p, dir, snapDir, n, chk)
	if err != nil {
		return nil, err
	}
	var reqs, ok int
	var elapsed, clientCPU time.Duration
	var nvcswTotal int64
	for i, b := range bs {
		reqs += len(b.m.lat)
		ok += b.m.ok
		elapsed += b.m.elapsed
		clientCPU += b.clientCPU
		nvcswTotal += b.nvcsw
		fmt.Fprintf(stdout, "boot %d: setup %.3f s; %d passes, %d requests in %.3f s, rss %.1f MB\n",
			i, b.setup, b.m.passes, len(b.m.lat), b.m.elapsed.Seconds(), float64(b.hwmKiB)/1024)
		for _, s := range b.m.segs {
			fmt.Fprintf(stdout, "  segment: %d requests in %.3f s, %.1f rps, p50 %.4f ms, p90 %.4f ms, whpcd cpu %.4f ms/req, steal %.3f\n",
				s.reqs, s.elapsed.Seconds(), float64(s.ok)/s.elapsed.Seconds(), quantile(s.lat, 0.5), quantile(s.lat, 0.9),
				ms(s.cpu)/float64(s.reqs), s.steal)
		}
	}
	clientShare := clientCPU.Seconds() / elapsed.Seconds()
	nvcsw := float64(nvcswTotal) / (float64(reqs) / 1000)
	fmt.Fprintf(stdout, "run: %d requests; client.cpu_share %.3f, proc.nvcsw_per_kreq %.2f\n", reqs, clientShare, nvcsw)

	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	med := func(f func(b boot) float64) float64 {
		xs := make([]float64, len(bs))
		for i, b := range bs {
			xs[i] = f(b)
		}
		return median(xs)
	}
	var segs []segment
	for _, b := range bs {
		segs = append(segs, b.m.segs...)
	}
	atZeroSteal := func(f func(s segment) float64) float64 { return zeroSteal(segs, f) }
	traceOK := true
	if o.trace == 0 {
		put("setup_s", "s", med(func(b boot) float64 { return b.setup }))
		put("throughput_rps", "1/s", atZeroSteal(func(s segment) float64 { return float64(s.ok) / s.elapsed.Seconds() }))
		put("p50_ms", "ms", atZeroSteal(func(s segment) float64 { return quantile(s.lat, 0.5) }))
		put("p90_ms", "ms", atZeroSteal(func(s segment) float64 { return quantile(s.lat, 0.9) }))
		put("cpu_ms_per_req", "ms", atZeroSteal(func(s segment) float64 { return ms(s.cpu) / float64(s.reqs) }))
		put("rss_peak_mb", "MB", med(func(b boot) float64 { return float64(b.hwmKiB) / 1024 }))
		put("ok_ratio", "ratio", float64(ok)/float64(reqs))
	} else {
		runtime.GOMAXPROCS(runtime.NumCPU())
		tdir := ""
		if p.snapshots {
			tdir = snapDir
		}
		t, err := tracePass(p, tdir, filepath.Join(dir, "traced.log"), chk)
		if err != nil {
			return nil, err
		}
		s := summarize(t.spans)
		s.table(stdout, o.workload)
		traceOK = s.outside == 0
		perLayer(put, bs[0], t, s, clientShare, nvcsw)
	}
	res.Attempted = chk.attempted
	res.Failed = chk.failed
	res.Correct = chk.failed == 0 && traceOK
	return res, nil
}

// minStealGap is the smallest steal difference (CPU seconds per second)
// between two segments that zeroSteal draws a slope through; closer pairs
// would turn rounding in the 10 ms steal counter into huge slopes.
const minStealGap = 1e-3

// maxStealCorrection bounds how far zeroSteal may move a figure from the
// segments' median: a run whose segments all saw heavy steal gives a
// steep, poorly anchored line, which once read a p90 below zero.
const maxStealCorrection = 2

// zeroSteal estimates f as it would read with no steal: the Theil-Sen
// line through all segments' (steal, f) points, read at steal 0 and kept
// within a factor maxStealCorrection of the median of f. On a shared
// virtual machine the hypervisor's steal comes and goes within seconds,
// and a closed loop slows by the time stolen from it: across segments,
// throughput correlated with steal at -0.7 to -0.97. The line takes that
// out and the median-based fit ignores a stray segment. With no spread in
// steal (a machine nobody shares), it is the median of f.
func zeroSteal(segs []segment, f func(segment) float64) float64 {
	ys := make([]float64, len(segs))
	for i, s := range segs {
		ys[i] = f(s)
	}
	var slopes []float64
	for i := range segs {
		for j := i + 1; j < len(segs); j++ {
			if dx := segs[j].steal - segs[i].steal; math.Abs(dx) >= minStealGap {
				slopes = append(slopes, (ys[j]-ys[i])/dx)
			}
		}
	}
	mid := median(ys)
	if len(slopes) == 0 {
		return mid
	}
	b := median(slopes)
	for i, s := range segs {
		ys[i] -= b * s.steal
	}
	return min(max(median(ys), mid/maxStealCorrection), mid*maxStealCorrection)
}

// perLayer computes the per-layer metrics of a -trace 1 run.
func perLayer(put func(string, string, float64), b boot, t *traceOut, s *summary, clientShare, nvcsw float64) {
	c := t.counts
	delta := func(family string) float64 { return t.after.sum(family) - t.before.sum(family) }
	spanMean := func(name string) (mean, total time.Duration) {
		n := 0
		for _, sp := range t.spans {
			if sp.name == name {
				n++
				total += sp.dur()
			}
		}
		if n > 0 {
			mean = total / time.Duration(n)
		}
		return mean, total
	}
	handlerP50 := durMedian(s.handlerMeasured)
	put("serve.handler_us", "us", us(handlerP50))
	put("serve.self_us", "us", us(durMedian(s.selfMeasured)))
	hits := delta("whpcd_exhibit_cache_hits_total") + delta("whpcd_exhibit_cache_coalesced_total")
	lookups := hits + delta("whpcd_exhibit_cache_misses_total")
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = hits / lookups
	}
	put("serve.cache_hit_ratio", "ratio", hitRatio)
	put("serve.cache_evictions", "count", delta("whpcd_exhibit_cache_evictions_total"))
	put("serve.materializations", "count", delta("whpcd_studies_materialized_total"))
	put("serve.study_evictions", "count", delta("whpcd_study_evictions_total"))
	renders := b.after.sum("whpcd_render_seconds_count") - b.before.sum("whpcd_render_seconds_count")
	renderMs := 0.0
	if renders > 0 {
		renderMs = 1000 * (b.after.sum("whpcd_render_seconds_sum") - b.before.sum("whpcd_render_seconds_sum")) / renders
	}
	put("serve.render_ms", "ms", renderMs)
	failures := b.after.errorResponses() + b.after.sum("whpcd_shed_total") + float64(b.errLines) +
		t.after.errorResponses() + t.after.sum("whpcd_shed_total")
	put("serve.failures", "count", failures)
	put("net.overhead_us", "us", quantile(b.m.lat, 0.5)*1000-us(handlerP50))

	parse, _ := spanMean("query.parse")
	runMean, runTotal := spanMean("query.run")
	enc, _ := spanMean("query.encode")
	put("query.parse_us", "us", us(parse))
	put("query.run_us", "us", us(runMean))
	put("query.encode_us", "us", us(enc))
	put("query.rows_scanned", "count", c["query.rows_scanned"])
	rowsPerUs := 0.0
	if runTotal > 0 {
		rowsPerUs = c["query.rows_scanned"] / us(runTotal)
	}
	put("query.rows_per_us", "rows/us", rowsPerUs)
	put("query.result_bytes", "bytes", c["query.result_bytes"])
	put("query.errors", "count", c["query.errors"])
	put("query.share", "ratio", s.share("measured", "query"))

	openMean, openTotal := spanMean("snap.open")
	put("snap.opens", "count", c["snap.opens"])
	put("snap.open_ms", "ms", ms(openMean))
	mbps := 0.0
	if openTotal > 0 {
		mbps = c["snap.bytes"] / 1e6 / openTotal.Seconds()
	}
	put("snap.mb_per_s", "MB/s", mbps)
	put("snap.fallbacks", "count", b.after.sum("whpcd_snapshot_fallbacks_total")+t.after.sum("whpcd_snapshot_fallbacks_total"))
	put("snap.quarantines", "count", b.after.sum("whpcd_snapshot_quarantines_total")+t.after.sum("whpcd_snapshot_quarantines_total"))
	put("snap.share", "ratio", s.share("measured", "snap"))

	applyMean, _ := spanMean("delta.apply")
	put("delta.applies", "count", c["delta.applies"])
	put("delta.apply_ms", "ms", ms(applyMean))
	put("delta.rows_added", "count", c["delta.rows_added"])

	put("synth.builds", "count", c["synth.builds"])
	put("synth.build_ms", "ms", selfMean(t.spans, "synth.build"))
	renderMean, _ := spanMean("report.render")
	put("report.renders", "count", c["report.renders"])
	put("report.render_ms", "ms", ms(renderMean))
	put("report.bytes", "bytes", c["report.bytes"])
	put("report.share", "ratio", s.share("measured", "report"))
	graph, _ := spanMean("cite.graph")
	put("cite.graph_ms", "ms", ms(graph))

	kreq := float64(len(b.m.lat)) / 1000
	put("runtime.gc_per_kreq", "1/kreq", float64(b.gcs)/kreq)
	put("proc.nvcsw_per_kreq", "1/kreq", nvcsw)
	put("client.cpu_share", "ratio", clientShare)
	put("trace.measured_library_spans", "count", float64(s.libMeasured))
	put("trace.spans_outside_parent", "count", float64(s.outside))
}

// selfMean is the mean self time in ms of the spans called name.
func selfMean(spans []span, name string) float64 {
	child := make(map[int]time.Duration)
	for _, sp := range spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.dur()
		}
	}
	var n int
	var total time.Duration
	for i, sp := range spans {
		if sp.name == name {
			n++
			total += sp.dur() - child[i]
		}
	}
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}
