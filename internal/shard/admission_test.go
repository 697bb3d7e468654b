package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/batchmux"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/faultinject"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/senderid"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// bulkHLR answers every MSISDN as unknown and counts its bulk calls and
// per-key calls apart.
type bulkHLR struct {
	batches, singles atomic.Int32
}

func (b *bulkHLR) Lookup(context.Context, string) (hlr.Result, error) {
	b.singles.Add(1)
	return hlr.Result{}, nil
}

func (b *bulkHLR) LookupBatch(_ context.Context, msisdns []string) ([]hlr.Result, []error) {
	b.batches.Add(1)
	return make([]hlr.Result, len(msisdns)), make([]error, len(msisdns))
}

// TestDefaultAdmissionCoversTwoWindows guards the sizing the next test
// relies on: a window flushes on size only when at least Window records
// are in flight.
func TestDefaultAdmissionCoversTwoWindows(t *testing.T) {
	if core.DefaultEnrichWorkers < 2*batchmux.DefaultWindow {
		t.Fatalf("DefaultEnrichWorkers = %d, want at least 2 × batchmux.DefaultWindow (%d)",
			core.DefaultEnrichWorkers, 2*batchmux.DefaultWindow)
	}
}

// TestColdEnrichFillsWindowsOnSize enriches two windows' worth of phone
// senders, all distinct, through a one-shard stack whose flush timer is a
// second long. With the default admission every window fills, so the
// round takes two bulk calls and no timer wait.
func TestColdEnrichFillsWindowsOnSize(t *testing.T) {
	fake := &bulkHLR{}
	reg := telemetry.NewRegistry()
	st := newTestStack(t, core.Services{HLR: fake}, StackConfig{
		Batch: &batchmux.Config{FlushInterval: time.Second},
	}, reg)
	ds := &core.Dataset{Records: make([]core.Record, 2*batchmux.DefaultWindow)}
	for i := range ds.Records {
		ds.Records[i] = core.Record{
			ID:         fmt.Sprintf("r%02d", i),
			SenderKind: senderid.KindPhone,
			SenderRaw:  fmt.Sprintf("+4477009%05d", i),
		}
	}
	start := time.Now()
	if err := st.pipe.Enrich(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 500*time.Millisecond {
		t.Errorf("Enrich took %v: windows waited for their timer instead of filling", took)
	}
	if got := fake.batches.Load(); got != 2 {
		t.Errorf("%d HLR bulk calls, want 2", got)
	}
	if got := reg.Snapshot().Counters["batch.hlr.flushes"]; got != 2 {
		t.Errorf("batch.hlr.flushes = %d, want 2", got)
	}
	if got := fake.singles.Load(); got != 0 {
		t.Errorf("%d per-key HLR calls bypassed the window", got)
	}
	for _, r := range ds.Records {
		if !r.HLRDone || r.Degraded() {
			t.Fatalf("record %s not enriched: HLRDone=%v errors=%v", r.ID, r.HLRDone, r.EnrichmentErrors)
		}
	}
}

// phoneReports are n forum reports with distinct phone senders and no
// URL, so each curated record makes exactly one HLR lookup.
func phoneReports(n int) []forum.RawReport {
	base := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	reports := make([]forum.RawReport, n)
	for i := range reports {
		reports[i] = forum.RawReport{
			Forum:    corpus.ForumSmishtank,
			PostID:   fmt.Sprintf("ph-%03d", i),
			PostedAt: base.Add(time.Duration(i) * time.Minute),
			SMSText:  fmt.Sprintf("Your parcel %d is held at the depot, reply YES to rebook delivery", i),
			SenderID: fmt.Sprintf("+4477009%05d", i),
		}
	}
	return reports
}

// TestShardedStudySharesBatchWindows runs two windows' worth of distinct
// phone senders through four in-process shards laid out as a sharded
// study lays them out, with a flush timer a second long. The shards share
// the process's batch windows, so the round still takes two bulk calls
// and no timer wait, the dataset matches an unsharded run's byte for
// byte, and the batching and fault tiers record once, on the root
// registry.
func TestShardedStudySharesBatchWindows(t *testing.T) {
	cfg := StackConfig{
		Faults: &faultinject.Config{Seed: 1}, // no fault rates: every call passes
		Batch:  &batchmux.Config{FlushInterval: time.Second},
	}
	reports := phoneReports(2 * batchmux.DefaultWindow)
	run := func(shards int) ([]byte, *bulkHLR, *telemetry.Registry, time.Duration) {
		t.Helper()
		fake, reg := &bulkHLR{}, telemetry.NewRegistry()
		regs := []*telemetry.Registry{reg}
		if shards > 1 {
			regs = make([]*telemetry.Registry, shards)
			for i := range regs {
				regs[i] = reg.Prefixed(fmt.Sprintf("shard.%d.", i))
			}
		}
		stacks, _, err := NewStacks(core.Services{HLR: fake}, cfg, reg, regs)
		if err != nil {
			t.Fatal(err)
		}
		enrichers := make([]Enricher, len(stacks))
		for i, st := range stacks {
			enrichers[i] = st
		}
		g, err := NewGroup(mustFront(t), enrichers, 0, reg)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		ds, err := g.Run(context.Background(), reports)
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Records) != len(reports) {
			t.Fatalf("curated %d records from %d reports", len(ds.Records), len(reports))
		}
		raw, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		return raw, fake, reg, took
	}

	unsharded, _, _, _ := run(1)
	sharded, fake, reg, took := run(4)
	if took >= 500*time.Millisecond {
		t.Errorf("sharded round took %v: windows waited for their timer instead of filling", took)
	}
	if got := fake.batches.Load(); got != 2 {
		t.Errorf("%d HLR bulk calls, want 2", got)
	}
	if got := fake.singles.Load(); got != 0 {
		t.Errorf("%d per-key HLR calls bypassed the window", got)
	}
	if !bytes.Equal(unsharded, sharded) {
		t.Error("4-shard dataset differs from the unsharded one")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["batch.hlr.flushes"]; got != 2 {
		t.Errorf("batch.hlr.flushes = %d, want 2", got)
	}
	for i := 0; i < 4; i++ {
		if n := snap.Counters[fmt.Sprintf("shard.%d.routed", i)]; n == 0 {
			t.Errorf("shard %d routed no records: the round did not exercise four shards", i)
		}
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "shard.") && (strings.Contains(name, ".batch.") || strings.Contains(name, ".fault.")) {
			t.Errorf("process tier recorded per shard: %s", name)
		}
	}
}
