//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. The
// carried-margins grid then skips its sizes past one stream chunk:
// seconds of pure compute each, which prove equivalence, not
// race-freedom. CI runs the whole grid in a non-race step.
const raceEnabled = true
