//go:build race

package runtime

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
