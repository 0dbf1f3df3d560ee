// Package chaos is the deterministic fault-injection subsystem: named
// injection points threaded through the serving, snapshot, and ingestion
// layers consult an Injector that is a no-op in production (None) and
// schedule-driven in tests (Scheduled). A Schedule is generated from a
// seed and a Profile, so every chaos run — which faults fired, at which
// points, on which hit ordinals — is replayable from its seed alone. That
// turns "the daemon survived a hostile afternoon" from an anecdote into a
// regression test: the same seed reproduces the identical fault sequence,
// and the suite can assert that every successful response stayed
// byte-identical to the fault-free run while every failure surfaced as a
// typed error with an accounted metric.
//
// The package deliberately knows nothing about HTTP, snapshots, or
// harvesting. Sites own the semantics of a fired fault: a snapshot read
// applies a torn read by truncating its buffer, the request middleware
// applies a panic by panicking, a clock wrapper applies a latency spike by
// oversleeping. chaos only decides *whether* and *what kind*, never *how*.
package chaos

import (
	"errors"
	"fmt"
	"time"
)

// Injection point names. Points are a closed, documented set so schedules
// stay meaningful across refactors and metric labels stay bounded.
const (
	// PointRequest fires once per admitted HTTP request, before the
	// handler runs (internal/serve middleware).
	PointRequest = "serve.request"
	// PointRender fires once per exhibit-cache miss, before the render
	// computes (internal/serve cache compute path).
	PointRender = "serve.render"
	// PointMaterialize fires once per study materialization, before the
	// corpus is built or loaded (internal/serve registry build path).
	PointMaterialize = "serve.materialize"
	// PointSnapRead fires once per snapshot file read, after the bytes
	// arrive but before validation (internal/snap open path). Torn-read
	// faults truncate the buffer here.
	PointSnapRead = "snap.read"
	// PointSnapDecode fires once per snapshot section decode
	// (internal/snap reader: persons, conferences, papers, frames).
	PointSnapDecode = "snap.decode"
	// PointClock fires once per chaos.Clock sleep, stretching or failing
	// the wait (latency-spike injection for code that sleeps on an
	// injected resilience.Clock).
	PointClock = "clock.advance"
	// PointIngestLookup fires once per bibliometric lookup attempt inside
	// the harvest worker chain (internal/ingest), upstream of the
	// per-service faulty.Injector.
	PointIngestLookup = "ingest.lookup"
	// PointDeltaApply fires once per delta application, after the delta
	// mini-corpus is decoded but before the study's dataset and frames
	// are touched (internal/delta apply path) — so an injected fault
	// leaves the base study exactly as it was.
	PointDeltaApply = "delta.apply"
	// PointCompact fires once per compacted-snapshot write, before the
	// file is written (internal/serve materialize path). Every fault kind
	// fails the write, which whpcd logs and counts while serving the
	// study from memory.
	PointCompact = "serve.compact"
)

// Points lists every injection point in a fixed order (for profiles,
// documentation, and bounded metric labels).
func Points() []string {
	return []string{
		PointRequest, PointRender, PointMaterialize,
		PointSnapRead, PointSnapDecode, PointClock,
		PointIngestLookup, PointDeltaApply, PointCompact,
	}
}

// Kind is the fault family a trigger injects. Sites that cannot express a
// kind degrade it to KindError — a fault never silently disappears.
type Kind uint8

const (
	// KindError makes the site fail with a typed injected error.
	KindError Kind = 1 + iota
	// KindTorn truncates an I/O read mid-buffer (the bytes after the tear
	// never arrive); only byte-reading sites can express it.
	KindTorn
	// KindLatency stalls the site on its injected clock before letting it
	// proceed — the operation still succeeds, just late.
	KindLatency
	// KindPanic panics at the site with a PanicValue, exercising the
	// containment (recover) layer above it.
	KindPanic
	// KindCancel cancels the site's context (or fails with
	// context.Canceled where no cancel function is in reach).
	KindCancel
)

// String names the kind for schedules, logs, and metric labels.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindTorn:
		return "torn"
	case KindLatency:
		return "latency"
	case KindPanic:
		return "panic"
	case KindCancel:
		return "cancel"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault is one armed fault: the kind plus the kind-specific magnitudes.
type Fault struct {
	Kind Kind
	// Latency is the extra stall for KindLatency.
	Latency time.Duration
	// TornBytes is how many trailing bytes a KindTorn read loses.
	TornBytes int
}

// Injector is consulted at every named injection point. Fire returns the
// fault to apply at this hit, or nil to proceed cleanly. Implementations
// must be safe for concurrent use; the production implementation (None)
// is allocation- and lock-free.
type Injector interface {
	Fire(point string) *Fault
}

// None is the production injector: it never injects.
var None Injector = noop{}

type noop struct{}

func (noop) Fire(string) *Fault { return nil }

// Or returns inj, or None when inj is nil, so call sites can hold a
// never-nil injector without branching.
func Or(inj Injector) Injector {
	if inj == nil {
		return None
	}
	return inj
}

// ErrInjected is the sentinel every injected error wraps; errors.Is lets
// the layers above distinguish scheduled chaos from organic failure.
var ErrInjected = errors.New("injected fault")

// Injected builds the typed error a site returns for an error-kind fault
// (or for a kind the site cannot express).
func Injected(point string, f *Fault) error {
	return fmt.Errorf("chaos: %s at %s: %w", f.Kind, point, ErrInjected)
}

// PanicValue is what KindPanic sites panic with, so containment layers can
// attribute a recovered panic to its injection point.
type PanicValue struct {
	Point string
}

// String renders the panic payload for recover logs.
func (p PanicValue) String() string {
	return fmt.Sprintf("chaos: injected panic at %s", p.Point)
}
