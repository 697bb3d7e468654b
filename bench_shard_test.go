// Benchmark for the key-sharded pipeline: the same seeded corpus is
// enriched through 1, 2, and 4 in-process shard instances — each owning
// its own cache and breaker set, all sharing the process's batchmux
// windows — and the headline metrics are enrichment throughput
// (records/sec through one batch round), the round-duration p95, and the
// upstream bill per 1k records: logical client calls ("client.<svc>.calls")
// and bulk flushes ("batch.<svc>.flushes"). Run with:
//
//	go test -run=NONE -bench=ShardedPipeline -benchtime=5x .
package smishkit

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"
)

// shardBenchResult is one shard count's scoreboard row.
type shardBenchResult struct {
	Shards        int
	Rounds        int
	RecordsPerRun int
	RecordsPerSec float64
	RoundP95Ms    float64
}

// shardRound is one benchmark round's outcome.
type shardRound struct {
	dur            time.Duration
	records        int
	calls, flushes int64 // upstream client calls and bulk flushes, all services
}

// runShardRound builds a fresh study at the given shard count (so no round
// inherits a warm cache from the last — every round pays the same misses),
// runs one collect+enrich batch, and returns its duration, record count
// and upstream traffic. The tier configs mirror the serve daemon's
// defaults: cache, batching, and breakers all on.
func runShardRound(tb testing.TB, shards int) shardRound {
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
	upstream := func(t Telemetry) (calls, flushes int64) {
		for _, svc := range enrichmentServices {
			calls += t.CounterValue("client." + svc + ".calls")
			flushes += t.CounterValue("batch." + svc + ".flushes")
		}
		return calls, flushes
	}
	calls0, flushes0 := upstream(study.Stats().Telemetry)
	start := time.Now()
	ds, err := study.group.Run(context.Background(), reports)
	if err != nil {
		tb.Fatal(err)
	}
	r := shardRound{dur: time.Since(start), records: len(ds.Records)}
	calls1, flushes1 := upstream(study.Stats().Telemetry)
	r.calls, r.flushes = calls1-calls0, flushes1-flushes0
	return r
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
			var calls, flushes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := runShardRound(b, shards)
				durs = append(durs, r.dur)
				records += r.records
				total += r.dur
				calls += r.calls
				flushes += r.flushes
			}
			b.StopTimer()
			if total <= 0 || len(durs) == 0 || records == 0 {
				return
			}
			recPerSec := float64(records) / total.Seconds()
			sort.Slice(durs, func(a, c int) bool { return durs[a] < durs[c] })
			p95 := durs[(len(durs)*95+99)/100-1]
			b.ReportMetric(recPerSec, "rec/s")
			b.ReportMetric(float64(p95.Milliseconds()), "round-p95-ms")
			b.ReportMetric(float64(calls)/float64(records)*1000, "upstream-calls/1k")
			b.ReportMetric(float64(flushes)/float64(records)*1000, "flushes/1k")
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
	}
}
