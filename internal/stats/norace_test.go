//go:build !race

package stats

// raceEnabled reports whether this test binary was built with the race
// detector; see race_test.go.
const raceEnabled = false
