package repro

import (
	"flag"
	"sort"
	"testing"
)

// Every timing floor in this package benchmarks each side of its
// comparison floorRounds times, floorRoundTime per run, alternating which
// side runs first.
const (
	floorRounds    = 5
	floorRoundTime = "300ms"
)

// floorMedians returns the median ns/op of fast and slow over alternating
// rounds. Under a parallel `go test ./...` other packages' tests share the
// CPUs in bursts; timing one side and then the other lets a burst land on
// one side only, while alternating rounds spread it over both and the
// medians drop the rounds it hit hardest. The benchmark functions, and so
// the measured operations, are the callers' own.
func floorMedians(t *testing.T, fast, slow func(*testing.B)) (fastNs, slowNs float64) {
	t.Helper()
	benchtime := flag.Lookup("test.benchtime").Value
	prev := benchtime.String()
	if err := benchtime.Set(floorRoundTime); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = benchtime.Set(prev) }()
	var fastRuns, slowRuns []float64
	for i := 0; i < floorRounds; i++ {
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
