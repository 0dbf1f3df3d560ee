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

// renderFault applies an armed render-layer fault inside a compute
// function: latency stretches on the server clock (honouring ctx), cancel
// and error fail the render typed, panic panics (contained by the
// middleware recover, released to waiters by the singleflight latch).
// Returns (false, nil) when no fault is armed for this hit.
func (s *Server) renderFault(ctx context.Context, point string) (bool, error) {
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

// writeError maps a handler error onto its transport status: not-applicable
// analyses are the client's 422, an expired request deadline is 504, a
// cancelled request 503, and everything else (including injected faults)
// 500. Every failed request exits through here or writeQueryError, which is
// what makes invariant 2 of the chaos suite checkable: typed error in,
// accounted status out.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrNotApplicable):
		http.Error(w, fmt.Sprintf("not applicable to this corpus: %v", err), http.StatusUnprocessableEntity)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, fmt.Sprintf("deadline exceeded: %v", err), http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		http.Error(w, fmt.Sprintf("request cancelled: %v", err), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// errorStatus is writeError's mapping as a pure function, shared with the
// structured-JSON query error path.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrNotApplicable):
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

// applyDeltas extends a freshly materialized pristine study with every
// year delta present in the snapshot directory for its (corpus, seed)
// stem, in ascending year order (the lexicographic sort of the fixed-stem
// file names orders four-digit years correctly). Each apply is attempted
// twice — the retry absorbs a torn read caught mid-rotation, and
// Study.ApplyDelta is atomic, so a failed attempt leaves the base study
// exactly as it was. A delta that still fails is quarantined like a
// corrupt base snapshot and the scan continues: the study serves without
// that year rather than not at all. Runs during materialization, before
// the registry publishes the study, so request handlers only ever observe
// fully patched studies.
func (s *Server) applyDeltas(key StudyKey, st *repro.Study) {
	paths, err := filepath.Glob(filepath.Join(s.cfg.SnapshotDir, snap.DeltaFilePattern(key.Corpus, key.Seed)))
	if err != nil || len(paths) == 0 {
		return
	}
	sort.Strings(paths)
	for _, path := range paths {
		r := resilience.Retryer{MaxAttempts: 2, Clock: s.clock}
		//whpcvet:ignore ctxflow delta application is materialization work shared across requests, deliberately detached from any one request's deadline
		err := r.Do(context.Background(), func(context.Context) error {
			aerr := st.ApplyDeltaFileInjected(path, s.inj)
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
