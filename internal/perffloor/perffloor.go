// Package perffloor holds what the repository's timing floors share: the
// alternating-rounds median comparison every floor asserts on, and
// whether the test binary carries the race detector, whose per-access
// instrumentation distorts the ratios the floors bound (they skip under
// it). It is imported by tests only.
package perffloor

import (
	"flag"
	"sort"
	"testing"
)

// Every timing floor benchmarks each side of its comparison rounds times,
// roundTime per run, alternating which side runs first.
const (
	rounds    = 5
	roundTime = "300ms"
)

// MedianResults returns, per side, the whole result of the round with the
// median ns/op over alternating rounds of fast and slow, so a floor can
// bound both the ratio of the medians and the work the median round did
// (AllocsPerOp, AllocedBytesPerOp). Under a parallel `go test ./...`
// other packages' tests share the CPUs in bursts; timing one side and then
// the other lets a burst land on one side only, while alternating rounds
// spread it over both and the medians drop the rounds it hit hardest. The
// benchmark functions, and so the measured operations, are the callers'
// own.
func MedianResults(t *testing.T, fast, slow func(*testing.B)) (fastRes, slowRes testing.BenchmarkResult) {
	t.Helper()
	benchtime := flag.Lookup("test.benchtime").Value
	prev := benchtime.String()
	if err := benchtime.Set(roundTime); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = benchtime.Set(prev) }()
	var fastRuns, slowRuns []testing.BenchmarkResult
	for i := 0; i < rounds; i++ {
		run := func(f func(*testing.B), into *[]testing.BenchmarkResult) {
			*into = append(*into, testing.Benchmark(f))
		}
		if i%2 == 0 {
			run(fast, &fastRuns)
			run(slow, &slowRuns)
		} else {
			run(slow, &slowRuns)
			run(fast, &fastRuns)
		}
	}
	return median(fastRuns), median(slowRuns)
}

func median(rs []testing.BenchmarkResult) testing.BenchmarkResult {
	sort.Slice(rs, func(i, j int) bool { return rs[i].NsPerOp() < rs[j].NsPerOp() })
	return rs[len(rs)/2]
}
