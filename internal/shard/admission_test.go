package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/batchmux"
	"github.com/smishkit/smishkit/internal/core"
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
	st, err := NewStack(core.Services{HLR: fake}, StackConfig{
		Batch: &batchmux.Config{FlushInterval: time.Second},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
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
