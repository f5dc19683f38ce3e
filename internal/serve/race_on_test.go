//go:build race

package serve

// raceEnabled mirrors the race detector's presence: allocation-count tests
// are skipped under -race because instrumentation changes heap behavior.
const raceEnabled = true
