//go:build race

package perffloor

// RaceEnabled reports that this binary was built with the race detector.
const RaceEnabled = true
