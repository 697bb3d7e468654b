package smishkit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/report"
	"github.com/smishkit/smishkit/internal/shard"
)

// runStudy builds a study with the given shard config, runs one batch, and
// returns the dataset's canonical JSON — the byte sequence the determinism
// contract is pinned on.
func runStudy(t *testing.T, shards *ShardConfig) []byte {
	t.Helper()
	return runOptions(t, Options{Seed: 7, Messages: 600, Shards: shards})
}

// runOptions is runStudy over any Options.
func runOptions(t *testing.T, o Options) []byte {
	t.Helper()
	study, err := NewStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	ds, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) == 0 {
		t.Fatal("empty dataset")
	}
	raw, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// summaryBytes serves GET /query/summary from a view over the dataset and
// returns the response body.
func summaryBytes(t *testing.T, rawDataset []byte) []byte {
	t.Helper()
	var ds Dataset
	if err := json.Unmarshal(rawDataset, &ds); err != nil {
		t.Fatal(err)
	}
	view := report.NewQueryView()
	view.Add(ds.Records)
	rec := httptest.NewRecorder()
	view.SummaryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/query/summary?top=10", nil))
	if rec.Code != 200 {
		t.Fatalf("/query/summary returned %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// TestShardMergeDeterminism is the tentpole's acceptance test: the same
// seed must produce a byte-identical dataset unsharded, with a one-shard
// ring, and with a four-shard ring — and the /query/summary built over
// each must match byte for byte. CI runs this test by name next to the
// durability gate.
func TestShardMergeDeterminism(t *testing.T) {
	unsharded := runStudy(t, nil)
	one := runStudy(t, &ShardConfig{Shards: 1})
	four := runStudy(t, &ShardConfig{Shards: 4})

	if !bytes.Equal(unsharded, one) {
		t.Error("shards=1 dataset differs from unsharded dataset")
	}
	if !bytes.Equal(unsharded, four) {
		t.Error("shards=4 dataset differs from unsharded dataset")
	}
	if s0, s4 := summaryBytes(t, unsharded), summaryBytes(t, four); !bytes.Equal(s0, s4) {
		t.Errorf("/query/summary diverges between unsharded and shards=4:\n%s\n----\n%s", s0, s4)
	}
}

// TestShardStatsSurface checks the scoreboard plumbing: Stats().Shards
// appears exactly when the study is sharded, every record is accounted
// for, and the shards section renders. The shards share the process's
// fault and batching tiers: their instruments record on the root
// collector, Stats().Batch reports the one batching tier, and no
// per-shard row shows it again.
func TestShardStatsSurface(t *testing.T) {
	study, err := NewStudy(Options{Seed: 3, Messages: 400, Shards: &ShardConfig{Shards: 3},
		Batch: &BatchConfig{}, Faults: &FaultConfig{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	ds, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	st := study.Stats()
	if st.Shards == nil {
		t.Fatal("Stats().Shards nil on a sharded study")
	}
	if st.Cache != nil || st.Resilience != nil {
		t.Error("sharded study leaked per-shard tier stats into the global scoreboard")
	}
	if st.Batch == nil {
		t.Fatal("Stats().Batch nil on a sharded study with Options.Batch")
	}
	var flushes int64
	for _, bs := range st.Batch {
		flushes += bs.Flushes
	}
	if flushes == 0 || flushes != st.Telemetry.Counters["batch.hlr.flushes"]+
		st.Telemetry.Counters["batch.dnsdb.flushes"]+st.Telemetry.Counters["batch.avscan.flushes"] {
		t.Errorf("Stats().Batch counts %d flushes, root batch.<svc>.flushes disagree: %v", flushes, st.Telemetry.Counters)
	}
	for _, sh := range st.Shards.PerShard {
		if sh.Stack == nil || sh.Stack.Batch != nil {
			t.Errorf("shard %d row: stack %+v, want stack stats without a batch scoreboard", sh.Index, sh.Stack)
		}
	}
	for name := range st.Telemetry.Counters {
		if strings.HasPrefix(name, "shard.") && (strings.Contains(name, ".batch.") || strings.Contains(name, ".fault.")) {
			t.Errorf("process tier recorded per shard: %s", name)
		}
	}
	if _, ok := st.Telemetry.Counters["fault.hlr.injected"]; !ok {
		t.Error("fault.hlr.injected missing from the root collector")
	}
	if st.Shards.Shards != 3 || st.Shards.Batches != 1 {
		t.Errorf("shard scoreboard: shards=%d batches=%d, want 3/1", st.Shards.Shards, st.Shards.Batches)
	}
	var routed, enriched int64
	for _, sh := range st.Shards.PerShard {
		routed += sh.Routed
		if sh.Stack != nil {
			enriched += sh.Stack.Enriched
		}
	}
	if routed != int64(len(ds.Records)) {
		t.Errorf("routed %d records, dataset has %d", routed, len(ds.Records))
	}
	if enriched != int64(len(ds.Records)) {
		t.Errorf("per-shard stacks enriched %d records, dataset has %d", enriched, len(ds.Records))
	}

	var buf bytes.Buffer
	if err := WriteStats(&buf, st, SectionShards); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "shards (n=3") {
		t.Errorf("WriteStats shards section missing:\n%s", buf.String())
	}

	// Per-shard telemetry landed under the shard.<i>. prefix.
	snap := study.Stats().Telemetry
	if snap.Counters["shard.batches"] != 1 {
		t.Errorf("shard.batches = %d, want 1", snap.Counters["shard.batches"])
	}
	var prefixed int64
	for i := 0; i < 3; i++ {
		prefixed += snap.Counters["shard."+string(rune('0'+i))+".routed"]
	}
	if prefixed != int64(len(ds.Records)) {
		t.Errorf("shard.<i>.routed counters sum to %d, want %d", prefixed, len(ds.Records))
	}

	// Unsharded studies must not grow a shards section.
	plain, err := NewStudy(Options{Seed: 3, Messages: 400})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Stats().Shards != nil {
		t.Error("unsharded study reports shard stats")
	}
}

func TestShardConfigValidation(t *testing.T) {
	bad := []Options{
		{Shards: &ShardConfig{Shards: 0}},
		{Shards: &ShardConfig{Shards: -2}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o.Shards)
		}
	}
	ok := Options{Shards: &ShardConfig{Shards: 2}}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected a sane shard config: %v", err)
	}
}

// TestShardWorkerSpecRoundTrip is the one-config property: for any
// Options, a worker built from the JSON of ShardWorkerSpec runs exactly the
// stack an in-process shard of the same study runs — every tier config,
// faults included, and the pipeline budgets. Only the process-local
// json:"-" fields (clocks, extractors, registries) are
// exempt. One fixed input pins that the budgets reach the stack; the rest
// are random.
func TestShardWorkerSpecRoundTrip(t *testing.T) {
	pipe := PipelineOptions{
		EnrichWorkers:    3,
		StepWorkers:      2,
		RecordBudget:     3 * time.Second,
		CallTimeout:      500 * time.Millisecond,
		AbortFailureRate: 0.5,
	}
	budgets := func(o PipelineOptions) PipelineOptions {
		return PipelineOptions{
			EnrichWorkers: o.EnrichWorkers, StepWorkers: o.StepWorkers,
			RecordBudget: o.RecordBudget, CallTimeout: o.CallTimeout,
			AbortFailureRate: o.AbortFailureRate,
		}
	}
	fixed := []struct {
		name string
		opts Options
		want PipelineOptions
	}{
		{"pipeline only", Options{Pipeline: pipe}, budgets(pipe)},
	}
	for _, tc := range fixed {
		t.Run(tc.name, func(t *testing.T) {
			local := checkWorkerSpecRoundTrip(t, tc.opts)
			if got := budgets(local.Pipeline); got != tc.want {
				t.Errorf("stack budgets %+v, want %+v", got, tc.want)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20))
		for i := 0; i < 200; i++ {
			o := randomStackOptions(rng)
			if !t.Run(fmt.Sprint(i), func(t *testing.T) { checkWorkerSpecRoundTrip(t, o) }) {
				t.Fatalf("case %d failed: %+v", i, o)
			}
		}
	})
}

// checkWorkerSpecRoundTrip builds a two-shard study from o, builds a worker
// from the decoded JSON of each shard's spec, and compares the worker's
// stack config with an in-process stack's. It returns the local config.
func checkWorkerSpecRoundTrip(t *testing.T, o Options) shard.StackConfig {
	t.Helper()
	o.Seed, o.Messages, o.Shards = 1, 1, &ShardConfig{Shards: 2}
	study, err := NewStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	reg := NewCollector()
	local, _, err := shard.NewStacks(study.Sim.Services(), shard.StackConfig{
		Faults: o.Faults, Batch: o.Batch, Cache: o.Cache, Resilience: o.Resilience, Pipeline: o.Pipeline,
	}, reg, []*Collector{reg})
	if err != nil {
		t.Fatal(err)
	}
	want := local[0].Config()
	stripLocal(reflect.ValueOf(&want))
	for i := 0; i < 2; i++ {
		raw, err := json.Marshal(study.ShardWorkerSpec(i))
		if err != nil {
			t.Fatalf("marshal spec %d: %v", i, err)
		}
		var spec ShardWorkerSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			t.Fatalf("unmarshal spec %d: %v", i, err)
		}
		if spec.Index != i || spec.Upstreams != study.Sim.Endpoints {
			t.Errorf("spec %d: index %d, upstreams %+v, want the study's %+v", i, spec.Index, spec.Upstreams, study.Sim.Endpoints)
		}
		wk, err := shard.NewWorker(spec)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		got := wk.Stack().Config()
		stripLocal(reflect.ValueOf(&got))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d stack config differs from the in-process stack's\nworker: %s\nlocal:  %s", i, dump(got), dump(want))
		}
	}
	return want
}

// stripLocal zeroes every field tagged json:"-" reachable from v through
// pointers and structs: the process-local fields that stay behind when a
// StackConfig crosses to a worker process.
func stripLocal(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			stripLocal(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Tag.Get("json") == "-" {
				v.Field(i).SetZero()
			} else {
				stripLocal(v.Field(i))
			}
		}
	}
}

func dump(c shard.StackConfig) string {
	raw, _ := json.Marshal(c)
	return string(raw)
}

// randomStackOptions draws Options whose tiers are each absent or set with
// random bounds and per-service overrides, plus random pipeline budgets and
// widths. Process-local hooks are set now and then too: they must neither
// break the spec's JSON nor count as a difference.
func randomStackOptions(rng *rand.Rand) Options {
	coin := func() bool { return rng.Intn(2) == 0 }
	dur := func() time.Duration {
		if coin() {
			return 0
		}
		return time.Duration(1 + rng.Int63n(int64(time.Minute)))
	}
	rate := func() float64 { return []float64{0, -1, rng.Float64()}[rng.Intn(3)] }
	services := []string{"hlr", "whois", "ctlog", "dnsdb", "avscan", "shortener"}
	perService := func(each func(name string)) {
		for _, name := range services {
			if rng.Intn(3) == 0 {
				each(name)
			}
		}
	}
	var o Options
	o.Pipeline = PipelineOptions{
		EnrichWorkers: rng.Intn(17), StepWorkers: rng.Intn(9),
		RecordBudget: dur(), CallTimeout: dur(), AbortFailureRate: rate(),
	}
	if coin() {
		o.Pipeline.Extractor = ExtractorNaiveOCR
	}
	if coin() {
		c := &CacheConfig{TTL: dur(), NegativeTTL: dur(), MaxEntries: rng.Intn(5000), ServeStale: coin()}
		if coin() {
			c.Clock = time.Now
		}
		o.Cache = c
	}
	if coin() {
		o.Batch = &BatchConfig{Window: rng.Intn(64), FlushInterval: dur()}
	}
	if coin() {
		o.Resilience = &ResilienceConfig{Breaker: BreakerConfig{
			FailureThreshold: rng.Intn(10), OpenTimeout: dur(),
			HalfOpenProbes: rng.Intn(4), ProbeSuccesses: rng.Intn(4),
		}}
	}
	faults := func() ServiceFaults {
		return ServiceFaults{
			ErrorRate: rng.Float64() / 4, Rate429: rng.Float64() / 4, Rate5xx: rng.Float64() / 4,
			HangRate: rng.Float64() / 4, SlowRate: rng.Float64() / 4, Latency: dur(),
		}
	}
	if coin() {
		f := &FaultConfig{Seed: rng.Int63(), Default: faults()}
		if coin() {
			f.PerService = map[string]ServiceFaults{}
			perService(func(n string) { f.PerService[n] = faults() })
		}
		o.Faults = f
	}
	return o
}

// TestShardWorkersInProcess drives the multi-process seam without spawning
// processes: each worker runs as a goroutine on RunShardWorker with its
// spec piped to stdin, exactly as smishctl -shard-worker would, and the
// parent connects over localhost HTTP. Output must match the unsharded
// baseline byte for byte — this is what pins core.Record's lossless JSON
// round-trip through the worker wire format — with the default tiers and
// with non-default ones, which each worker must run as configured rather
// than with its tiers' defaults.
func TestShardWorkersInProcess(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"defaults", Options{}},
		{"non-default tiers", Options{
			Batch:      &BatchConfig{Window: 4},
			Cache:      &CacheConfig{MaxEntries: 64},
			Resilience: &ResilienceConfig{Breaker: BreakerConfig{FailureThreshold: 2}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			o.Seed, o.Messages = 7, 600
			baseline := runOptions(t, o)

			const shards = 2
			o.Shards = &ShardConfig{Shards: shards}
			study, err := NewStudy(o)
			if err != nil {
				t.Fatal(err)
			}
			defer study.Close()
			urls, _ := startTestWorkers(t, study, shards)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := study.ConnectShardWorkers(ctx, urls); err != nil {
				t.Fatal(err)
			}

			ds, err := study.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(ds)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(baseline, raw) {
				t.Error("remote-worker dataset differs from unsharded baseline")
			}

			st := study.Stats().Shards
			if st == nil {
				t.Fatal("Stats().Shards nil after remote run")
			}
			for _, sh := range st.PerShard {
				if !sh.Remote {
					t.Errorf("shard %d not marked remote", sh.Index)
				}
				if sh.Routed > 0 && sh.Stack == nil {
					t.Errorf("shard %d: no stack stats from live worker", sh.Index)
				}
				if sh.Stack == nil {
					continue
				}
				if b := o.Batch; b != nil {
					for svc, bs := range sh.Stack.Batch {
						if bs.AvgBatch() > float64(b.Window) {
							t.Errorf("shard %d %s: %.1f keys per flush, window is %d", sh.Index, svc, bs.AvgBatch(), b.Window)
						}
					}
				}
				if c := o.Cache; c != nil {
					// dnsdb and avscan keep two and three LRUs, each capped.
					lrus := map[string]int{"dnsdb": 2, "avscan": 3}
					for svc, cs := range sh.Stack.Cache {
						if limit := c.MaxEntries * max(1, lrus[svc]); cs.Entries > limit {
							t.Errorf("shard %d %s: %d cache entries, cap is %d", sh.Index, svc, cs.Entries, limit)
						}
					}
				}
			}
			// The study's batching scoreboard is the workers' sum: the
			// parent's own windows sit idle once the workers serve.
			if o.Batch != nil {
				var rows BatchStats
				for _, sh := range st.PerShard {
					if sh.Stack != nil {
						rows = rows.Add(sh.Stack.Batch)
					}
				}
				got := study.Stats().Batch
				var flushes int64
				for _, bs := range got {
					flushes += bs.Flushes
				}
				if flushes == 0 {
					t.Errorf("Stats().Batch = %+v, want the workers' flushes", got)
				}
				if !reflect.DeepEqual(got, rows) {
					t.Errorf("Stats().Batch = %+v, want the per-row sum %+v", got, rows)
				}
			}

			// Mismatched URL count is rejected before any connection attempt.
			if err := study.ConnectShardWorkers(ctx, urls[:1]); err == nil {
				t.Error("ConnectShardWorkers accepted a short URL list")
			}
		})
	}
}
