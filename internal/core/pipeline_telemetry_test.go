package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/senderid"
	"github.com/smishkit/smishkit/internal/telemetry"
)

func mustPipeline(t *testing.T, services Services, opts Options) *Pipeline {
	t.Helper()
	pipe, err := NewPipeline(services, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

func TestNewPipelineRejectsNegativeWorkers(t *testing.T) {
	if _, err := NewPipeline(Services{}, Options{EnrichWorkers: -1}); err == nil {
		t.Fatal("negative EnrichWorkers accepted")
	}
}

// TestSplitShortStripsFragment is the regression for the shortener-lookup
// miss: codes must not retain ?query or #fragment suffixes.
func TestSplitShortStripsFragment(t *testing.T) {
	cases := []struct{ url, service, code string }{
		{"https://bit.ly/abc#x", "bit.ly", "abc"},
		{"https://bit.ly/abc?utm=1#frag", "bit.ly", "abc"},
		{"https://bit.ly/abc#", "bit.ly", "abc"},
		{"https://t.co/Zz9#sec:2", "t.co", "Zz9"},
		{"https://bit.ly/abc", "bit.ly", "abc"},
	}
	for _, c := range cases {
		service, code := splitShort(c.url)
		if service != c.service || code != c.code {
			t.Errorf("splitShort(%q) = (%q, %q), want (%q, %q)",
				c.url, service, code, c.service, c.code)
		}
	}
}

// TestEnrichAbortsOnTransportError drives the worker pool into its abort
// path: the HLR client points at a dead address, so the first record fails
// at the transport level and the whole pool must shut down promptly
// (run under -race in CI to catch shutdown races).
func TestEnrichAbortsOnTransportError(t *testing.T) {
	reg := telemetry.NewRegistry()
	dead := hlr.NewClient("http://127.0.0.1:1", "k").Instrument(reg)
	dead.API.MaxRetries = 1
	dead.API.Backoff = time.Millisecond
	pipe := mustPipeline(t, Services{HLR: dead}, Options{EnrichWorkers: 8, Telemetry: reg})

	ds := &Dataset{}
	for i := 0; i < 64; i++ {
		ds.Records = append(ds.Records, Record{
			SenderKind: senderid.KindPhone,
			SenderRaw:  "+447700900123",
		})
	}

	done := make(chan error, 1)
	go func() { done <- pipe.Enrich(context.Background(), ds) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "enrichment aborted") {
			t.Fatalf("transport failure surfaced as %v, want the enrichment aborted error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Enrich did not return after transport error (worker pool hung)")
	}

	snap := pipe.Telemetry().Snapshot()
	if snap.Counters["client.hlr.errors"] == 0 {
		t.Error("instrumented HLR client recorded no errors")
	}
	if snap.Gauges["pipeline.enrich.busy_workers"] != 0 {
		t.Errorf("busy_workers gauge = %d after shutdown, want 0",
			snap.Gauges["pipeline.enrich.busy_workers"])
	}
}

// shortCircuitHLR models a guard decorator (an open circuit breaker)
// shedding every call without reaching the service.
type shortCircuitHLR struct{ calls atomic.Int64 }

func (s *shortCircuitHLR) Lookup(context.Context, string) (hlr.Result, error) {
	s.calls.Add(1)
	return hlr.Result{}, fmt.Errorf("guard: %w", ErrShortCircuited)
}

// TestEnrichShortCircuitsDoNotAbort pins the abort-accounting contract:
// a guard shedding 100% of calls degrades every record's field but must
// stay out of the AbortFailureRate ratio — an open breaker protecting
// the sweep must not be what aborts it. (64 records is above the
// 50-call minimum sample, so counting shed calls as failures would abort
// here.)
func TestEnrichShortCircuitsDoNotAbort(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := &shortCircuitHLR{}
	pipe := mustPipeline(t, Services{HLR: svc}, Options{EnrichWorkers: 8, Telemetry: reg})

	ds := &Dataset{}
	for i := 0; i < 64; i++ {
		ds.Records = append(ds.Records, Record{
			SenderKind: senderid.KindPhone,
			SenderRaw:  "+447700900123",
		})
	}
	if err := pipe.Enrich(context.Background(), ds); err != nil {
		t.Fatalf("Enrich aborted on short-circuited calls: %v", err)
	}
	if got := svc.calls.Load(); got != 64 {
		t.Errorf("guard saw %d calls, want 64", got)
	}
	for i, r := range ds.Records {
		if len(r.EnrichmentErrors) != 1 || r.EnrichmentErrors[0].Field != "hlr" {
			t.Fatalf("record %d enrichment errors = %+v, want one degraded hlr field",
				i, r.EnrichmentErrors)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["pipeline.enrich.degraded_fields"]; got != 64 {
		t.Errorf("degraded_fields = %d, want 64", got)
	}
	if got := snap.Counters["pipeline.enrich.degraded_records"]; got != 64 {
		t.Errorf("degraded_records = %d, want 64", got)
	}
}

func TestEnrichAbortUsesInstrumentedClientTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	dead := hlr.NewClient("http://127.0.0.1:1", "k").Instrument(reg)
	dead.API.MaxRetries = 2
	dead.API.Backoff = time.Millisecond
	if _, err := dead.Lookup(context.Background(), "+447700900123"); err == nil {
		t.Fatal("lookup against dead address succeeded")
	}
	snap := reg.Snapshot()
	if snap.Counters["client.hlr.calls"] != 1 {
		t.Errorf("calls = %d, want 1", snap.Counters["client.hlr.calls"])
	}
	if snap.Counters["client.hlr.retries"] != 2 {
		t.Errorf("retries = %d, want 2", snap.Counters["client.hlr.retries"])
	}
	if snap.Counters["client.hlr.errors"] != 1 {
		t.Errorf("errors = %d, want 1", snap.Counters["client.hlr.errors"])
	}
	if snap.Histograms["client.hlr.latency"].Count != 1 {
		t.Errorf("latency observations = %d, want 1",
			snap.Histograms["client.hlr.latency"].Count)
	}
}

// TestPipelineRecordsStageSpans runs curate/enrich/annotate directly and
// checks the spans and curation-outcome counters land in the registry.
func TestPipelineRecordsStageSpans(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := mustPipeline(t, Services{}, Options{Telemetry: reg})
	ds := pipe.Curate(nil)
	if err := pipe.Enrich(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Annotate(context.Background(), ds); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, stage := range []string{"curate", "enrich", "annotate"} {
		if snap.Spans[stage].Count != 1 {
			t.Errorf("span %q count = %d, want 1", stage, snap.Spans[stage].Count)
		}
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "pipeline.curate.") && snap.Counters[name] != 0 {
			t.Errorf("empty curate recorded %s = %d", name, snap.Counters[name])
		}
	}
}
