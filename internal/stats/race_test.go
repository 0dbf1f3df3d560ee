//go:build race

package stats

// raceEnabled reports that this test binary was built with the race
// detector, whose per-access instrumentation distorts the timing ratio
// the KDE perf floor asserts.
const raceEnabled = true
