package smishkit

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
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
	study, err := NewStudy(Options{Seed: 7, Messages: 600, Shards: shards})
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
// for, and the shards section renders.
func TestShardStatsSurface(t *testing.T) {
	study, err := NewStudy(Options{Seed: 3, Messages: 400, Shards: &ShardConfig{Shards: 3}})
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
	if st.Cache != nil || st.Batch != nil || st.Resilience != nil {
		t.Error("sharded study leaked global tier stats (documented as per-shard only)")
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
	if plain.Stats().Shards != nil || plain.ShardStats() != nil {
		t.Error("unsharded study reports shard stats")
	}
}

func TestShardConfigValidation(t *testing.T) {
	bad := []Options{
		{Shards: &ShardConfig{Shards: 0}},
		{Shards: &ShardConfig{Shards: -2}},
		{Shards: &ShardConfig{Shards: 2, Replicas: -1}},
		{Shards: &ShardConfig{Shards: 3, WorkerURLs: []string{"http://127.0.0.1:1"}}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o.Shards)
		}
	}
	ok := Options{Shards: &ShardConfig{Shards: 2, Replicas: 64}}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected a sane shard config: %v", err)
	}
}

// TestShardWorkerSpecBudgets pins that a worker process gets the
// enrichment budgets an in-process shard gets: the spec's WorkerPipeline
// must equal what shard.NewStack resolves from the same Options, whether
// the budgets come from Pipeline, from Resilience, or from both (Pipeline
// wins field by field).
func TestShardWorkerSpecBudgets(t *testing.T) {
	pipe := PipelineOptions{
		EnrichWorkers:    3,
		StepWorkers:      2,
		RecordBudget:     3 * time.Second,
		CallTimeout:      500 * time.Millisecond,
		AbortFailureRate: 0.5,
		MinAbortCalls:    20,
	}
	res := &ResilienceConfig{
		RecordBudget:     7 * time.Second,
		CallTimeout:      time.Second,
		AbortFailureRate: 0.7,
		MinAbortCalls:    30,
	}
	partial := PipelineOptions{RecordBudget: 3 * time.Second, AbortFailureRate: 0.5}
	cases := []struct {
		name string
		pipe PipelineOptions
		res  *ResilienceConfig
		want shard.WorkerPipeline
	}{
		{"pipeline only", pipe, nil, shard.WorkerPipeline{
			EnrichWorkers: 3, StepWorkers: 2, RecordBudget: 3 * time.Second,
			CallTimeout: 500 * time.Millisecond, AbortFailureRate: 0.5, MinAbortCalls: 20,
		}},
		{"resilience only", PipelineOptions{}, res, shard.WorkerPipeline{
			RecordBudget: 7 * time.Second, CallTimeout: time.Second, AbortFailureRate: 0.7, MinAbortCalls: 30,
		}},
		{"both", partial, res, shard.WorkerPipeline{
			RecordBudget: 3 * time.Second, CallTimeout: time.Second, AbortFailureRate: 0.5, MinAbortCalls: 30,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			study, err := NewStudy(Options{Seed: 1, Messages: 20, Pipeline: tc.pipe, Resilience: tc.res})
			if err != nil {
				t.Fatal(err)
			}
			defer study.Close()
			stack, err := shard.NewStack(study.Sim.Services(), shard.StackConfig{
				Resilience: tc.res,
				Pipeline:   tc.pipe,
			}, NewCollector())
			if err != nil {
				t.Fatal(err)
			}
			o := stack.PipelineOptions()
			local := shard.WorkerPipeline{
				EnrichWorkers:    o.EnrichWorkers,
				StepWorkers:      o.StepWorkers,
				RecordBudget:     o.RecordBudget,
				CallTimeout:      o.CallTimeout,
				AbortFailureRate: o.AbortFailureRate,
				MinAbortCalls:    o.MinAbortCalls,
			}
			spec := study.ShardWorkerSpec(0).Pipeline
			if spec != local {
				t.Errorf("worker spec pipeline %+v, local stack resolved %+v", spec, local)
			}
			if spec != tc.want {
				t.Errorf("worker spec pipeline %+v, want %+v", spec, tc.want)
			}
		})
	}
}

// TestShardWorkersInProcess drives the multi-process seam without spawning
// processes: each worker runs as a goroutine on RunShardWorker with its
// spec piped to stdin, exactly as smishctl -shard-worker would, and the
// parent connects over localhost HTTP. Output must match the unsharded
// baseline byte for byte — this is what pins core.Record's lossless JSON
// round-trip through the worker wire format.
func TestShardWorkersInProcess(t *testing.T) {
	baseline := runStudy(t, nil)

	const shards = 2
	study, err := NewStudy(Options{Seed: 7, Messages: 600, Shards: &ShardConfig{Shards: shards}})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		spec, err := json.Marshal(study.ShardWorkerSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		pr, pw := io.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pw.Close()
			if err := RunShardWorker(ctx, bytes.NewReader(spec), pw); err != nil && ctx.Err() == nil {
				t.Errorf("worker: %v", err)
			}
		}()
		line, err := bufio.NewReader(pr).ReadString('\n')
		if err != nil {
			t.Fatalf("worker %d printed no URL: %v", i, err)
		}
		urls[i] = strings.TrimSpace(line)
	}

	cctx, ccancel := context.WithTimeout(ctx, 10*time.Second)
	defer ccancel()
	if err := study.ConnectShardWorkers(cctx, urls); err != nil {
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

	st := study.ShardStats()
	if st == nil {
		t.Fatal("ShardStats nil after remote run")
	}
	for _, sh := range st.PerShard {
		if !sh.Remote {
			t.Errorf("shard %d not marked remote", sh.Index)
		}
		if sh.Routed > 0 && sh.Stack == nil {
			t.Errorf("shard %d: no stack stats from live worker", sh.Index)
		}
	}

	// Mismatched URL count is rejected before any connection attempt.
	if err := study.ConnectShardWorkers(cctx, urls[:1]); err == nil {
		t.Error("ConnectShardWorkers accepted a short URL list")
	}
	cancel()
	wg.Wait()
}
