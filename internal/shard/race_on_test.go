//go:build race

package shard

// raceEnabled lets tests skip allocation assertions under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
