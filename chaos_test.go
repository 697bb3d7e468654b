package smishkit

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestChaosOutputLayoutIndependent pins chaos runs to one output: with
// faults (hangs included), the cache and batching on and breakers off,
// the records and the rendered report are byte-identical unsharded, over
// two in-process shards and over two loopback worker processes. Each
// fault is a function of its seed and lookup key, so neither call order
// nor which process's batch window a key lands in can move a record.
// CI's chaos job runs it under -race -count=3.
func TestChaosOutputLayoutIndependent(t *testing.T) {
	base := Options{
		Seed:     1,
		Messages: 300,
		Faults: &FaultConfig{Seed: 1, Default: ServiceFaults{
			ErrorRate: 0.15, Rate5xx: 0.08, Rate429: 0.05, HangRate: 0.005,
			SlowRate: 0.1, Latency: time.Millisecond,
		}},
		Cache: &CacheConfig{ServeStale: true},
		Batch: &BatchConfig{},
		// The timeout outlasts a call's retry backoff, so only injected
		// hangs reach it. The failure-rate abort is off because it judges
		// whichever calls finish first: injected faults return at once
		// while real calls take a round trip, so under load a shard's
		// first 50 completions can be nearly all failures.
		Pipeline: PipelineOptions{CallTimeout: 2 * time.Second, AbortFailureRate: -1},
	}
	run := func(name string, shards *ShardConfig, workers bool) []byte {
		o := base
		o.Shards = shards
		study, err := NewStudy(o)
		if err != nil {
			t.Fatal(err)
		}
		defer study.Close()
		if workers {
			urls, _ := startTestWorkers(t, study, shards.Shards)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := study.ConnectShardWorkers(ctx, urls); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := study.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		degraded := 0
		for _, r := range ds.Records {
			if r.Degraded() {
				degraded++
			}
		}
		t.Logf("%s: %d of %d records degraded", name, degraded, len(ds.Records))
		if degraded == 0 {
			t.Errorf("%s: the fault mix degraded no records", name)
		}
		var out bytes.Buffer
		if err := json.NewEncoder(&out).Encode(ds.Records); err != nil {
			t.Fatal(err)
		}
		if err := WriteReport(&out, ds); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	want := run("unsharded", nil, false)
	if got := run("2 shards", &ShardConfig{Shards: 2}, false); !bytes.Equal(got, want) {
		t.Error("2 in-process shards: records or report differ from the unsharded run")
	}
	if got := run("2 workers", &ShardConfig{Shards: 2}, true); !bytes.Equal(got, want) {
		t.Error("2 loopback workers: records or report differ from the unsharded run")
	}
}
