// Command whpcd serves the reproduction's analyses over HTTP: JSON
// endpoints for the headline statistics, plain-text exhibits and the full
// report, CSV exports, and Prometheus metrics. Responses are memoized per
// study and the inputs it was materialized from, rendered once among
// concurrent requests, and byte-identical to what the library renders
// directly.
//
// Usage:
//
//	whpcd [-addr :8171] [-seed 2021] [-fault-profile none]
//	      [-snapshot-dir DIR] [-cache-size 256] [-study-cache 4]
//	      [-max-inflight 64] [-rate 0] [-burst 8] [-timeout 30s]
//	      [-drain-timeout 15s] [-quiet]
//
// POST /v1/query runs an ad-hoc columnar query spec. GET /v1/csv/<family>
// serves an exhibit family as CSV, and POST /v1/trend and POST /v1/cite
// serve the longitudinal and citation-flow families under view names,
// with the same bytes and cache entries. Queries and every family but
// experience_bands run in-process on the query engine, which scans each
// request's frame serially, on the request's goroutine.
//
// With -snapshot-dir, pristine studies warm-boot from <corpus>-<seed>.whpcsnap
// files (written by whpc -snapshot-out) instead of synthesizing, and apply
// the <corpus>-<seed>.delta-<year>.whpcsnap year deltas beside them
// (written by whpc -delta-out); missing or invalid snapshots fall back to
// synthesis.
// whpcd writes to the directory too. A snapshot that fails validation
// twice is quarantined in place (renamed to *.whpcsnap.quarantined) and
// never re-read; the study synthesizes instead. A base that absorbed all
// its deltas is written back as one compacted snapshot,
// <corpus>-<seed>.compact-<lineage>.whpcsnap, which later materializations
// open with no delta apply; a new, replaced or removed delta changes the
// lineage, and the outdated file is deleted once its successor is written.
//
// Fault handling is fail-operational: a panicking handler is contained to
// its request (500 + whpcd_panics_total), and a failed re-render of an
// evicted exhibit serves the previous identical bytes with a Warning
// header (whpcd_stale_serves_total). Error-path events are reported as
// JSON lines on stderr, separate from the access log.
//
// SIGINT/SIGTERM trigger a graceful drain: the listener closes, in-flight
// requests finish (bounded by -drain-timeout), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "whpcd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8171", "listen address")
		seed        = flag.Uint64("seed", 2021, "default corpus seed for requests without ?seed=")
		profile     = flag.String("fault-profile", "none", "default harvest fault profile for requests without ?profile= (none, clean, flaky, degraded, outage)")
		snapDir     = flag.String("snapshot-dir", "", "directory of <corpus>-<seed>.whpcsnap files (and their year deltas) to warm-boot studies from; whpcd writes compacted snapshots and quarantine renames there")
		cacheSize   = flag.Int("cache-size", 256, "max memoized exhibit renders")
		studyCache  = flag.Int("study-cache", 4, "max resident materialized studies")
		maxInflight = flag.Int("max-inflight", 64, "max concurrently served requests (excess get 503)")
		rate        = flag.Float64("rate", 0, "per-route rate limit in requests/second (0 disables)")
		burst       = flag.Int("burst", 8, "per-route rate-limit burst")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		drain       = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain budget")
		quiet       = flag.Bool("quiet", false, "disable the JSON access log on stderr")
	)
	flag.Parse()

	cfg := serve.Config{
		DefaultSeed:    *seed,
		DefaultProfile: *profile,
		SnapshotDir:    *snapDir,
		CacheCap:       *cacheSize,
		StudyCap:       *studyCache,
		MaxInFlight:    *maxInflight,
		RatePerSecond:  *rate,
		RateBurst:      *burst,
		RequestTimeout: *timeout,
		DrainTimeout:   *drain,
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	// Error-path events (panics, quarantines, stale serves, snapshot
	// fallbacks) always reach stderr, even under -quiet: they are the
	// operator's only record that the daemon degraded and why.
	cfg.ErrorLog = os.Stderr
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}

	//whpcvet:ignore ctxflow main is the root of every context; signals are its only cancellation source
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("whpcd listening on %s (seed %d, profile %s)\n", l.Addr(), *seed, *profile)
	if err := srv.Serve(ctx, l); err != nil {
		return err
	}
	fmt.Println("whpcd drained cleanly")
	return nil
}
