//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in. The
// full-registry golden suite skips under it — it is minutes of pure
// compute that proves byte-determinism, not race-freedom; the detector
// gets its worker-scheduling coverage from the small parallel sweep
// tests, and CI runs the golden suite in a dedicated non-race step.
const raceEnabled = true
