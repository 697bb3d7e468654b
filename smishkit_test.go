package smishkit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestStudyEndToEnd(t *testing.T) {
	study, err := NewStudy(Options{Seed: 7, Messages: 600})
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
	var buf bytes.Buffer
	if err := WriteReport(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 10: scam categories") {
		t.Error("report missing scam categories")
	}
	if err := WriteReport(failingWriter{}, ds); err == nil {
		t.Error("WriteReport swallowed the writer error")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("pipe closed") }

// TestStudyTelemetryEndToEnd is the acceptance check for the telemetry
// subsystem: one full Run must produce a snapshot covering all four
// pipeline stages and all six enrichment services, retrievable both
// through Study.Stats and the simulation's /debug/telemetry endpoint.
func TestStudyTelemetryEndToEnd(t *testing.T) {
	collector := NewCollector()
	study, err := NewStudy(Options{Seed: 11, Messages: 600, Collector: collector})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	if _, err := study.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := study.Stats().Telemetry
	for _, stage := range []string{"collect", "curate", "enrich", "annotate"} {
		if snap.Spans[stage].Count < 1 {
			t.Errorf("stage %q has no span (spans: %v)", stage, snap.Spans)
		}
	}
	for _, svc := range []string{"hlr", "whois", "ctlog", "dnsdb", "avscan", "shortener"} {
		if snap.Counters["client."+svc+".calls"] == 0 {
			t.Errorf("service %q recorded no calls", svc)
		}
		if snap.Histograms["client."+svc+".latency"].Count == 0 {
			t.Errorf("service %q recorded no latencies", svc)
		}
	}
	if snap.Counters["pipeline.curate.ok"] == 0 || snap.Counters["pipeline.enrich.records"] == 0 {
		t.Errorf("pipeline counters empty: %v", snap.Counters)
	}
	// The user-supplied collector is the same registry the study records
	// into.
	if got := collector.Snapshot().Counters["pipeline.curate.ok"]; got != snap.Counters["pipeline.curate.ok"] {
		t.Errorf("Options.Collector diverges from Study.Stats().Telemetry: %d != %d",
			got, snap.Counters["pipeline.curate.ok"])
	}

	// Same numbers over the wire.
	resp, err := http.Get(study.Sim.DebugURL + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire Telemetry
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Counters["pipeline.curate.ok"] != snap.Counters["pipeline.curate.ok"] {
		t.Errorf("/debug/telemetry curate.ok = %d, want %d",
			wire.Counters["pipeline.curate.ok"], snap.Counters["pipeline.curate.ok"])
	}

	var buf bytes.Buffer
	if err := WriteStats(&buf, Stats{Telemetry: snap}, SectionTelemetry); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"collect", "client.hlr.calls", "p99"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered telemetry missing %q", want)
		}
	}

	// Close is idempotent and telemetry survives it.
	if err := study.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := study.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if after := study.Stats().Telemetry; after.Counters["pipeline.curate.ok"] == 0 {
		t.Error("telemetry lost after Close")
	}
}

// TestStudyCacheEndToEnd is the acceptance check for the enrichment
// cache: a study built with Options.Cache must run the full pipeline
// through the decorated services, record cache.<service>.* counters into
// the same telemetry registry, and report a non-nil typed CacheStats with
// real key reuse (a synthetic corpus repeats campaigns, domains, and
// sender numbers heavily, so hits must dominate).
func TestStudyCacheEndToEnd(t *testing.T) {
	study, err := NewStudy(Options{Seed: 13, Messages: 600, Cache: &CacheConfig{}})
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

	all := study.Stats()
	stats := all.Cache
	if stats == nil {
		t.Fatal("Stats().Cache = nil with Options.Cache set")
	}
	var hits, misses int64
	for svc, st := range stats {
		hits += st.Hits + st.Coalesced
		misses += st.Misses
		if st.Misses == 0 && st.Hits == 0 && st.Coalesced == 0 {
			t.Errorf("service %q saw no traffic", svc)
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("cache saw hits=%d misses=%d, want both > 0", hits, misses)
	}
	// Domain-keyed services see heavy key reuse (many messages per
	// campaign domain); URL-keyed ones (avscan, shortener) mostly don't.
	for _, svc := range []string{"whois", "ctlog", "dnsdb"} {
		st := stats[svc]
		if st.Hits+st.Coalesced <= st.Misses {
			t.Errorf("%s: hits+coalesced (%d) <= misses (%d): domain reuse should dominate",
				svc, st.Hits+st.Coalesced, st.Misses)
		}
	}

	// Cache counters live in the same registry as the client metrics, and
	// every upstream call the clients record is a cache miss (or a stale
	// probe) — the decorators absorb the rest.
	snap := all.Telemetry
	if snap.Counters["cache.whois.hits"] != stats["whois"].Hits {
		t.Errorf("telemetry cache.whois.hits = %d, Stats().Cache = %d",
			snap.Counters["cache.whois.hits"], stats["whois"].Hits)
	}
	if calls, m := snap.Counters["client.whois.calls"], stats["whois"].Misses; calls != m {
		t.Errorf("client.whois.calls = %d, want %d (one upstream call per miss)", calls, m)
	}

	var buf bytes.Buffer
	if err := WriteStats(&buf, all, SectionCache); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"enrichment cache", "whois", "hit%"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered cache stats missing %q:\n%s", want, buf.String())
		}
	}
}

// TestStudyWithoutCache keeps the default path honest: no Options.Cache
// means a nil Stats().Cache and no cache.* counters in telemetry.
func TestStudyWithoutCache(t *testing.T) {
	study, err := NewStudy(Options{Seed: 3, Messages: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	all := study.Stats()
	if all.Cache != nil {
		t.Error("Stats().Cache non-nil without Options.Cache")
	}
	if all.Resilience != nil {
		t.Error("Stats().Resilience non-nil without Options.Resilience")
	}
	for name := range all.Telemetry.Counters {
		if strings.HasPrefix(name, "cache.") {
			t.Errorf("unexpected cache counter %q without Options.Cache", name)
		}
		if strings.HasPrefix(name, "breaker.") || strings.HasPrefix(name, "fault.") {
			t.Errorf("unexpected counter %q without Options.Resilience/Faults", name)
		}
	}
}

// TestStudyResilienceOneServiceDown is the facade acceptance check for
// the resilience layer: with whois 100% down behind its breaker, a run
// must still complete; whois fields degrade (each loss recorded on its
// record), every other service's fields resolve, and Stats().Resilience
// shows the whois breaker open with real short-circuits.
func TestStudyResilienceOneServiceDown(t *testing.T) {
	study, err := NewStudy(Options{
		Seed:     17,
		Messages: 600,
		Faults: &FaultConfig{
			Seed:       17,
			PerService: map[string]ServiceFaults{"whois": {ErrorRate: 1}},
		},
		Resilience: &ResilienceConfig{
			Breaker: BreakerConfig{FailureThreshold: 5, OpenTimeout: 50 * time.Millisecond},
		},
		Pipeline: PipelineOptions{CallTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	ds, err := study.Run(context.Background())
	if err != nil {
		t.Fatalf("run with one dead service aborted; want degraded completion: %v", err)
	}
	if len(ds.Records) == 0 {
		t.Fatal("empty dataset")
	}

	var whoisLost, whoisResolved, otherLost, otherEnriched int
	for _, r := range ds.Records {
		if r.WhoisFound {
			whoisResolved++
		}
		if r.CT.Certs > 0 || r.HLRDone || r.VTMalicious > 0 {
			otherEnriched++
		}
		for _, e := range r.EnrichmentErrors {
			if e.Service == "whois" {
				whoisLost++
				if e.Field != "whois" || e.Err == "" {
					t.Fatalf("malformed whois enrichment error: %+v", e)
				}
			} else {
				otherLost++
			}
		}
	}
	if whoisResolved != 0 {
		t.Errorf("%d records resolved whois through a 100%% dead service", whoisResolved)
	}
	if whoisLost == 0 {
		t.Error("no whois fields recorded as lost")
	}
	if otherLost != 0 {
		t.Errorf("%d fields lost on healthy services", otherLost)
	}
	if otherEnriched == 0 {
		t.Error("healthy services enriched nothing")
	}

	all := study.Stats()
	stats := all.Resilience
	if stats == nil {
		t.Fatal("Stats().Resilience = nil with Options.Resilience set")
	}
	w := stats["whois"]
	if w.Opens == 0 {
		t.Errorf("whois breaker never opened: %+v", w)
	}
	if w.ShortCircuits == 0 {
		t.Errorf("open whois breaker short-circuited nothing: %+v", w)
	}
	for _, svc := range []string{"hlr", "ctlog", "dnsdb", "avscan", "shortener"} {
		if s := stats[svc]; s.Opens != 0 {
			t.Errorf("healthy service %s breaker opened: %+v", svc, s)
		}
	}
	// Short-circuited calls never reach the fault gate, so the injected
	// count plus breaker admissions stay consistent in telemetry.
	snap := all.Telemetry
	if snap.Gauges["breaker.whois.state"] == int64(0) && w.State == "open" {
		t.Error("breaker.whois.state gauge disagrees with Stats")
	}
	if snap.Counters["fault.whois.injected"] == 0 {
		t.Error("no whois faults injected")
	}

	var buf bytes.Buffer
	if err := WriteStats(&buf, all, SectionResilience); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"resilience breakers", "whois"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered resilience stats missing %q:\n%s", want, buf.String())
		}
	}
}

// TestNewStudyClosesSimOnPipelineFailure covers the no-leaked-listeners
// contract: pipeline construction failure must yield an error (and close
// the already-booted simulation internally).
func TestNewStudyClosesSimOnPipelineFailure(t *testing.T) {
	opts := Options{Seed: 1, Messages: 50}
	opts.Pipeline.EnrichWorkers = -1
	if _, err := NewStudy(opts); err == nil {
		t.Fatal("NewStudy accepted a negative worker count")
	}
}

func TestGenerateWorldDeterministic(t *testing.T) {
	a := GenerateWorld(WorldConfig{Seed: 3, Messages: 100})
	b := GenerateWorld(WorldConfig{Seed: 3, Messages: 100})
	if len(a.Messages) != len(b.Messages) || a.Messages[0].Text != b.Messages[0].Text {
		t.Error("world generation not deterministic")
	}
}

func TestExtractorLadderExported(t *testing.T) {
	for _, e := range []struct {
		name string
		ext  interface{ Name() string }
	}{
		{"naive-ocr", ExtractorNaiveOCR},
		{"vision-ocr", ExtractorVisionOCR},
		{"structured-vision", ExtractorStructuredVision},
	} {
		if e.ext.Name() != e.name {
			t.Errorf("extractor name = %q, want %q", e.ext.Name(), e.name)
		}
	}
}

func TestMitigationFacade(t *testing.T) {
	w := GenerateWorld(WorldConfig{Seed: 81, Messages: 1500})
	docs := TrainingDocs(w, 82, 300)
	model, err := TrainDetector(docs, true)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFilter(FilterConfig{Classifier: model, BlockBadSenders: true})
	v, err := f.Check(context.Background(), "+447700900123",
		"HSBC alert: your account has been suspended. Verify at https://hsbc-verify.top/kyc within 24 hours")
	if err != nil {
		t.Fatal(err)
	}
	if v.Action != "block" {
		t.Errorf("smish verdict = %+v", v)
	}
	v, _ = f.Check(context.Background(), "+447700900123", "running late, see you at 7")
	if v.Action != "allow" {
		t.Errorf("ham verdict = %+v", v)
	}
}

func TestAnalysisFacade(t *testing.T) {
	study, err := NewStudy(Options{Seed: 85, Messages: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	ds, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	campaigns := ClusterCampaigns(ds, DefaultClusterOptions())
	if len(campaigns) == 0 || campaigns[0].Size() == 0 {
		t.Fatal("no campaigns clustered")
	}

	var buf bytes.Buffer
	n, err := WriteRelease(&buf, study.World)
	if err != nil || n != 500 {
		t.Fatalf("release write: n=%d err=%v", n, err)
	}
	records, err := ReadRelease(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRelease(records); err != nil {
		t.Fatal(err)
	}
	if len(GenerateHam(1, 10)) != 10 {
		t.Error("ham generation broken")
	}
}
