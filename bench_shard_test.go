// Benchmark for the key-sharded pipeline: the same seeded corpus is
// enriched through 1, 2, and 4 shard instances — each owning its own
// cache, batchmux windows, and breaker set — and the headline metrics are
// enrichment throughput (records/sec through one batch round) and the
// round-duration p95. Run with:
//
//	go test -run=NONE -bench=ShardedPipeline -benchtime=5x .
//
// When BENCH_SHARD_JSON names a file, BenchmarkShardedPipeline writes a
// machine-readable baseline there (per shard count: records/sec, round
// p95); CI uploads it next to BENCH_enrich.json and BENCH_batch.json.
package smishkit

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"
)

// shardBenchResult is one shard count's scoreboard row.
type shardBenchResult struct {
	Shards        int     `json:"shards"`
	Rounds        int     `json:"rounds"`
	RecordsPerRun int     `json:"records_per_round"`
	RecordsPerSec float64 `json:"records_per_sec"`
	RoundP95Ms    float64 `json:"round_p95_ms"`
}

// runShardRound builds a fresh study at the given shard count (so no round
// inherits a warm cache from the last — every round pays the same misses),
// runs one collect+enrich batch, and returns the batch duration and record
// count. The tier configs mirror the serve daemon's defaults: cache,
// batching, and breakers all on.
func runShardRound(tb testing.TB, shards int) (time.Duration, int) {
	tb.Helper()
	opts := Options{
		Seed:       21,
		Messages:   2000,
		Cache:      &CacheConfig{},
		Batch:      &BatchConfig{},
		Resilience: &ResilienceConfig{},
	}
	if shards > 0 {
		opts.Shards = &ShardConfig{Shards: shards}
	}
	study, err := NewStudy(opts)
	if err != nil {
		tb.Fatal(err)
	}
	defer study.Close()
	reports, err := study.Collect(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	ds, err := study.group.Run(context.Background(), reports)
	if err != nil {
		tb.Fatal(err)
	}
	return time.Since(start), len(ds.Records)
}

// BenchmarkShardedPipeline measures 1/2/4-shard enrichment throughput on
// the facade's seeded corpus. Wall time per round is what the serve loop's
// round p95 sees, so the same number feeds the BENCH_shard.json baseline.
func BenchmarkShardedPipeline(b *testing.B) {
	// Keyed by shard count because the harness runs each sub-benchmark
	// more than once (an N=1 probe before the timed run) — the last, real
	// run wins.
	results := make(map[int]shardBenchResult)
	counts := []int{1, 2, 4}
	for _, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			durs := make([]time.Duration, 0, b.N)
			records := 0
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, n := runShardRound(b, shards)
				durs = append(durs, d)
				records += n
				total += d
			}
			b.StopTimer()
			if total <= 0 || len(durs) == 0 {
				return
			}
			recPerSec := float64(records) / total.Seconds()
			sort.Slice(durs, func(a, c int) bool { return durs[a] < durs[c] })
			p95 := durs[(len(durs)*95+99)/100-1]
			b.ReportMetric(recPerSec, "rec/s")
			b.ReportMetric(float64(p95.Milliseconds()), "round-p95-ms")
			results[shards] = shardBenchResult{
				Shards:        shards,
				Rounds:        len(durs),
				RecordsPerRun: records / len(durs),
				RecordsPerSec: recPerSec,
				RoundP95Ms:    float64(p95.Microseconds()) / 1000,
			}
		})
	}
	if len(results) == len(counts) {
		rows := make([]shardBenchResult, len(counts))
		for i, c := range counts {
			rows[i] = results[c]
		}
		b.Logf("throughput: 1-shard=%.0f rec/s, 2-shard=%.0f rec/s, 4-shard=%.0f rec/s",
			rows[0].RecordsPerSec, rows[1].RecordsPerSec, rows[2].RecordsPerSec)
		writeBenchShardJSON(b, rows)
	}
}

// writeBenchShardJSON emits the machine-readable baseline when the
// BENCH_SHARD_JSON environment variable names a destination file.
func writeBenchShardJSON(b *testing.B, results []shardBenchResult) {
	path := os.Getenv("BENCH_SHARD_JSON")
	if path == "" {
		return
	}
	doc := struct {
		Corpus  int                `json:"corpus_messages"`
		Results []shardBenchResult `json:"results"`
	}{2000, results}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		b.Errorf("writing %s: %v", path, err)
	}
}
