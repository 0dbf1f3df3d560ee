package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/snap"
)

// QuarantineSuffix is appended to a snapshot file's name when warm-boot
// reads it as corrupt twice in a row. The rename takes the file out of the
// warm path permanently (the next materialization sees "missing" and
// synthesizes without re-reading the bad bytes), while keeping it on disk
// for a post-mortem.
const QuarantineSuffix = ".quarantined"

// countingInjector wraps a chaos.Injector so every fault that actually
// fires is counted in whpcd_chaos_injected_total{point}. It is the only
// injector handle the server keeps, so snap-layer firings (threaded
// through OpenSnapshotFileInjected) are counted the same as serve-layer
// ones.
type countingInjector struct {
	inner chaos.Injector
	fired *obs.CounterVec
}

func (ci countingInjector) Fire(point string) *chaos.Fault {
	f := ci.inner.Fire(point)
	if f != nil {
		ci.fired.With(point).Inc()
	}
	return f
}

// fire consults the server's injector at point. Production servers hold
// chaos.None here, which makes this a single interface call returning nil.
func (s *Server) fire(point string) *chaos.Fault {
	return s.inj.Fire(point)
}

// fault applies an armed fault at point inside a render or a build:
// latency stretches on the server clock (honouring ctx), cancel and error
// fail typed, panic panics (contained by the middleware recover, released
// to waiters by the memo's latch). Returns (false, nil) when no fault is
// armed for this hit.
func (s *Server) fault(ctx context.Context, point string) (bool, error) {
	f := s.fire(point)
	if f == nil {
		return false, nil
	}
	switch f.Kind {
	case chaos.KindLatency:
		if err := s.clock.Sleep(ctx, f.Latency); err != nil {
			return true, err
		}
		return false, nil
	case chaos.KindCancel:
		return true, context.Canceled
	case chaos.KindPanic:
		panic(chaos.PanicValue{Point: point})
	default:
		return true, chaos.Injected(point, f)
	}
}

// writeError maps a handler error onto its transport status (errorStatus)
// and answers in plain text. Every failed request exits through here or
// writeQueryError, which is what makes invariant 2 of the chaos suite
// checkable: typed error in, accounted status out.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := errorStatus(err)
	http.Error(w, errorPrefix[status]+err.Error(), status)
}

// errorPrefix names the failure class in writeError's plain-text bodies.
var errorPrefix = map[int]string{
	http.StatusUnprocessableEntity: "not applicable to this corpus: ",
	http.StatusGatewayTimeout:      "deadline exceeded: ",
	http.StatusServiceUnavailable:  "request cancelled: ",
}

// errorStatus maps a handler error onto its transport status:
// not-applicable analyses and queries that match no rows (an exhibit
// family the corpus has no rows for) are the client's 422, an expired
// request deadline is 504, a cancelled request 503, and everything else
// (including injected faults) 500.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrNotApplicable), errors.Is(err, query.ErrEmpty):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// errorRecord is one structured error-log line.
type errorRecord struct {
	Time  string `json:"time"`
	Level string `json:"level"`
	Msg   string `json:"msg"`
}

// logError writes one structured line to the error log; a nil ErrorLog
// disables it. Lines are JSON ({"time":...,"level":"error","msg":...}) so
// operators can tail the same pipeline as the access log.
func (s *Server) logError(msg string) {
	if s.cfg.ErrorLog == nil {
		return
	}
	line, err := json.Marshal(errorRecord{
		Time:  s.clock.Now().UTC().Format(time.RFC3339Nano),
		Level: "error",
		Msg:   msg,
	})
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.errMu.Lock()
	_, _ = s.cfg.ErrorLog.Write(line)
	s.errMu.Unlock()
}

// loadSnapshot opens the snapshot at path through the server's injector,
// retrying a corrupt read exactly once (immediately — no backoff; the
// retry absorbs a torn read caught mid-rotation). A second corrupt read
// quarantines the file. Missing files return fs.ErrNotExist untouched and
// are never retried or quarantined — missing is the normal cold-start
// state, not damage.
func (s *Server) loadSnapshot(path string) (*repro.Study, error) {
	var study *repro.Study
	r := resilience.Retryer{MaxAttempts: 2, Clock: s.clock}
	//whpcvet:ignore ctxflow snapshot loads are boot/registry work shared across requests, deliberately detached from any one request's deadline
	err := r.Do(context.Background(), func(context.Context) error {
		st, err := repro.OpenSnapshotFileInjected(path, s.inj)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return resilience.Permanent(err)
			}
			return err
		}
		study = st
		return nil
	})
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.quarantine(path, err)
		}
		return nil, err
	}
	return study, nil
}

// loadFromDir materializes a pristine study from the snapshot directory,
// with the lineage of the files it absorbed. When year deltas sit beside
// the key's base snapshot, the compacted snapshot of their lineage
// (snap.CompactFileName) is opened first: it is the base with every delta
// already applied, so the visit costs one decode and no apply, and the
// study's lineage is the base's and deltas'. Without one, the base is
// opened and the deltas applied, and a study that absorbed all of them is
// compacted for later visits. A compacted file takes the base's
// retry-then-quarantine policy; a quarantined one is rebuilt from base and
// deltas and rewritten. Errors are the base's: fs.ErrNotExist when it is
// missing, the decode failure otherwise.
func (s *Server) loadFromDir(key StudyKey) (*repro.Study, snap.Lineage, error) {
	base := filepath.Join(s.cfg.SnapshotDir, snap.CorpusFileName(key.Corpus, key.Seed))
	deltas := s.deltaFiles(key)
	// Each input's checksum is read before the input itself, so a file
	// replaced in between leaves the study named after the older bytes: a
	// cache miss later, never a hit on renders of different inputs.
	lineage, lerr := snap.BaseLineage(base)
	compact := ""
	if len(deltas) > 0 && lerr == nil {
		// No lineage (a file vanished or is shorter than its trailer)
		// means no compaction; the base open and the applies below report
		// the cause.
		grown, err := lineage, error(nil)
		for _, d := range deltas {
			if err == nil {
				grown, err = grown.WithDelta(d)
			}
		}
		if err == nil {
			compact = filepath.Join(s.cfg.SnapshotDir, snap.CompactFileName(key.Corpus, key.Seed, grown))
			if st, err := s.loadSnapshot(compact); err == nil {
				s.met.compactedLoads.Inc()
				return st, grown, nil
			}
		}
	}
	st, err := s.loadSnapshot(base)
	if err == nil {
		err = lerr
	}
	if err != nil {
		return nil, snap.Lineage{}, err
	}
	lineage, applied := s.applyDeltas(st, lineage, deltas)
	if applied == len(deltas) && compact != "" {
		s.compact(key, st, compact)
	}
	return st, lineage, nil
}

// deltaFiles lists the year deltas present in the snapshot directory for
// a key's (corpus, seed) stem, in ascending year order (the lexicographic
// sort of the fixed-stem file names orders four-digit years correctly).
func (s *Server) deltaFiles(key StudyKey) []string {
	paths, err := filepath.Glob(filepath.Join(s.cfg.SnapshotDir, snap.DeltaFilePattern(key.Corpus, key.Seed)))
	if err != nil {
		return nil
	}
	sort.Strings(paths)
	return paths
}

// applyDeltas extends a freshly materialized pristine study with the year
// deltas at paths, in order, and returns its lineage grown by the deltas
// that applied, and their count. Each apply is attempted twice — the
// retry absorbs a torn read caught mid-rotation, and Study.ApplyDelta is
// atomic, so a failed attempt leaves the study exactly as it was. A delta
// that still fails is quarantined like a corrupt base snapshot, left out
// of the lineage, and the scan continues: the study serves without that
// year rather than not at all, and is not compacted, so the next
// materialization retries without the quarantined file. Runs during
// materialization, before the registry publishes the study, so request
// handlers only ever observe fully patched studies.
func (s *Server) applyDeltas(st *repro.Study, lineage snap.Lineage, paths []string) (snap.Lineage, int) {
	applied := 0
	for _, path := range paths {
		var grown snap.Lineage
		r := resilience.Retryer{MaxAttempts: 2, Clock: s.clock}
		//whpcvet:ignore ctxflow delta application is materialization work shared across requests, deliberately detached from any one request's deadline
		err := r.Do(context.Background(), func(context.Context) error {
			var aerr error
			if grown, aerr = lineage.WithDelta(path); aerr == nil {
				aerr = st.ApplyDeltaFileInjected(path, s.inj)
			}
			if aerr != nil && errors.Is(aerr, fs.ErrNotExist) {
				return resilience.Permanent(aerr)
			}
			return aerr
		})
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				s.quarantine(path, err)
			}
			continue
		}
		s.met.deltaApplies.Inc()
		lineage = grown
		applied++
	}
	return lineage, applied
}

// Compaction outcomes, the labels of whpcd_snapshot_compactions_total.
const (
	compactWritten = "written"
	compactFailed  = "failed"
)

// compact writes a study grown from the directory's base and deltas back
// as the compacted snapshot at path. It runs synchronously, before the
// registry publishes the study, through snap.WriteFile (atomic and
// fsynced, so no reader ever sees a partial file). A failed write is
// logged and counted, and the study serves from memory; the next
// materialization of the key tries again. After a successful write the
// key's compacted files of other lineages are removed: no delta set in
// the directory names them any more.
func (s *Server) compact(key StudyKey, st *repro.Study, path string) {
	var err error
	if f := s.fire(chaos.PointCompact); f != nil {
		err = chaos.Injected(chaos.PointCompact, f)
	} else {
		err = st.SaveSnapshot(path)
	}
	if err != nil {
		s.met.compactions.With(compactFailed).Inc()
		s.logError(fmt.Sprintf("compacting study (%s) to %s: %v; serving it from memory", key, path, err))
		return
	}
	s.met.compactions.With(compactWritten).Inc()
	stale, _ := filepath.Glob(filepath.Join(s.cfg.SnapshotDir, snap.CompactFilePattern(key.Corpus, key.Seed)))
	for _, old := range stale {
		if old == path {
			continue
		}
		if err := os.Remove(old); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.logError(fmt.Sprintf("removing stale compacted snapshot %s: %v", old, err))
		}
	}
}

// quarantine renames a snapshot that failed decode twice to
// path+QuarantineSuffix, counts it, and logs the failing section so the
// operator can tell a torn write from version skew. The bad file is never
// re-read: after the rename the warm path sees "missing" and synthesizes.
func (s *Server) quarantine(path string, cause error) {
	if err := os.Rename(path, path+QuarantineSuffix); err != nil {
		s.logError(fmt.Sprintf("quarantining snapshot %s: %v (original failure: %v)", path, err, cause))
		return
	}
	s.met.snapshotQuarantines.Inc()
	section := "unknown"
	var fe *snap.FormatError
	if errors.As(cause, &fe) && fe.Section != "" {
		section = fe.Section
	}
	s.logError(fmt.Sprintf("snapshot %s quarantined to %s%s (failing section %q): %v",
		path, path, QuarantineSuffix, section, cause))
}
