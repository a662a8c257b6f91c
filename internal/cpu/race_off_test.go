//go:build !race

package cpu

// raceEnabled lets allocation-count assertions skip under -race, where
// the instrumentation changes per-op allocation behavior. The workloads
// themselves still run so -race covers the same code paths.
const raceEnabled = false
