//go:build race

package obs

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, which would trip absolute allocation gates.
const raceEnabled = true
