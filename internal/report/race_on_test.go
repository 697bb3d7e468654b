//go:build race

package report

// raceEnabled lets tests skip allocation assertions under the race
// detector, whose instrumentation changes allocation behavior.
const raceEnabled = true
