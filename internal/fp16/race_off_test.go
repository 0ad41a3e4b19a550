//go:build !race

package fp16

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
