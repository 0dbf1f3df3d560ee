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

// Medians returns the median ns/op of fast and slow over alternating
// rounds. Under a parallel `go test ./...` other packages' tests share the
// CPUs in bursts; timing one side and then the other lets a burst land on
// one side only, while alternating rounds spread it over both and the
// medians drop the rounds it hit hardest. The benchmark functions, and so
// the measured operations, are the callers' own.
func Medians(t *testing.T, fast, slow func(*testing.B)) (fastNs, slowNs float64) {
	t.Helper()
	benchtime := flag.Lookup("test.benchtime").Value
	prev := benchtime.String()
	if err := benchtime.Set(roundTime); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = benchtime.Set(prev) }()
	var fastRuns, slowRuns []float64
	for i := 0; i < rounds; i++ {
		run := func(f func(*testing.B), into *[]float64) {
			*into = append(*into, float64(testing.Benchmark(f).NsPerOp()))
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

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
