//go:build race

package sim

// raceEnabled reports a -race build, where sync.Pool drops a share of
// the values put into it on purpose, so pooled paths allocate.
const raceEnabled = true
