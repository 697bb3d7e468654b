// Benchmarks for the intra-record enrichment DAG, against fake services
// with fixed simulated latencies (so the numbers measure orchestration,
// not the loopback HTTP stack). Run with:
//
//	go test -run=NONE -bench='EnrichSequentialVsDAG' -benchtime=1x -count=5 .
//
// When BENCH_ENRICH_JSON names a file, BenchmarkEnrichSequentialVsDAG
// writes a machine-readable baseline there; CI uploads it as an artifact
// and benchstat-compares the text output against bench/baseline_enrich.txt.
package smishkit

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/senderid"
	"github.com/smishkit/smishkit/internal/telemetry"
	"github.com/smishkit/smishkit/internal/urlinfo"
	"github.com/smishkit/smishkit/internal/whois"
)

const (
	// benchRTT is the simulated per-call service round trip. Sequential
	// enrichment of a phone+URL record costs 9 RTTs (hlr, whois, ct,
	// pdns + 2 AS lookups, and three AV endpoints); the DAG's critical
	// path at StepWorkers=4 is the 3-RTT pdns chain.
	benchRTT = time.Millisecond

	benchRecords = 96
	benchWorkers = 8
)

// Fixed-latency fakes, one type per service so HLR's and whois's Lookup
// methods don't collide on a shared receiver.

type benchHLR struct{ rtt time.Duration }

func (s benchHLR) Lookup(context.Context, string) (hlr.Result, error) {
	time.Sleep(s.rtt)
	return hlr.Result{Known: true}, nil
}

type benchWhois struct{ rtt time.Duration }

func (s benchWhois) Lookup(context.Context, string) (whois.Record, bool, error) {
	time.Sleep(s.rtt)
	return whois.Record{}, true, nil
}

type benchCT struct{ rtt time.Duration }

func (s benchCT) Summary(context.Context, string) (ctlog.Summary, error) {
	time.Sleep(s.rtt)
	return ctlog.Summary{}, nil
}

type benchDNS struct{ rtt time.Duration }

func (s benchDNS) Resolutions(_ context.Context, domain string) ([]dnsdb.Observation, error) {
	time.Sleep(s.rtt)
	return []dnsdb.Observation{
		{Domain: domain, IP: "192.0.2.10"},
		{Domain: domain, IP: "198.51.100.20"},
	}, nil
}

func (s benchDNS) ASOf(context.Context, string) (dnsdb.ASInfo, error) {
	time.Sleep(s.rtt)
	return dnsdb.ASInfo{ASN: 64500, Name: "BENCH-NET", Country: "US"}, nil
}

type benchAV struct{ rtt time.Duration }

func (s benchAV) Scan(_ context.Context, u string) (avscan.Report, error) {
	time.Sleep(s.rtt)
	return avscan.Report{URL: u, Stats: avscan.ReportStats{Malicious: 3}}, nil
}

func (s benchAV) GSBLookup(_ context.Context, u string) (avscan.GSBResult, error) {
	time.Sleep(s.rtt)
	return avscan.GSBResult{URL: u, Matched: true}, nil
}

func (s benchAV) Transparency(_ context.Context, u string) (avscan.TransparencyResult, bool, error) {
	time.Sleep(s.rtt)
	return avscan.TransparencyResult{URL: u}, false, nil
}

func benchLatencyServices(rtt time.Duration) core.Services {
	return core.Services{
		HLR:    benchHLR{rtt},
		Whois:  benchWhois{rtt},
		CTLog:  benchCT{rtt},
		DNSDB:  benchDNS{rtt},
		AVScan: benchAV{rtt},
	}
}

// benchEnrichSet builds records that trigger all seven enrichment
// families: a phone sender plus a dedicated (non-shared-platform) domain.
func benchEnrichSet(n int) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		u := fmt.Sprintf("https://evil-clinic-%d.xyz/login", i)
		info, err := urlinfo.Parse(u)
		if err != nil {
			panic(err)
		}
		recs[i] = core.Record{
			ID:         fmt.Sprintf("bench-%d", i),
			Forum:      corpus.ForumSmishtank,
			Text:       "Your appointment is cancelled, rebook: " + u,
			SenderRaw:  "+447700900123",
			SenderKind: senderid.KindPhone,
			ShownURL:   u,
			URLInfo:    info,
		}
	}
	return recs
}

// benchEnrich runs Enrich over the standard record set at the given
// intra-record width and returns the mean per-record enrichment latency
// from the pipeline's own histogram.
func benchEnrich(b *testing.B, stepWorkers int) time.Duration {
	b.Helper()
	template := benchEnrichSet(benchRecords)
	reg := telemetry.NewRegistry()
	pipe, err := core.NewPipeline(benchLatencyServices(benchRTT), core.Options{
		EnrichWorkers: benchWorkers,
		StepWorkers:   stepWorkers,
		Telemetry:     reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ds := &core.Dataset{Records: append([]core.Record(nil), template...)}
		b.StartTimer()
		if err := pipe.Enrich(context.Background(), ds); err != nil {
			b.Fatal(err)
		}
		if got := len(ds.Records[0].EnrichmentErrors); got != 0 {
			b.Fatalf("benchmark services degraded %d fields", got)
		}
	}
	b.StopTimer()
	h := reg.Snapshot().Histograms["pipeline.enrich.record_latency"]
	if h.Count == 0 {
		b.Fatal("no per-record latency observations")
	}
	b.ReportMetric(float64(h.Mean), "ns/record")
	return h.Mean
}

// BenchmarkEnrichSequentialVsDAG pins the tentpole claim: at the default
// simulated service latencies, scattering the independent families under
// StepWorkers=4 cuts per-record enrichment latency by >= 2x versus the
// historical sequential order (StepWorkers=1).
func BenchmarkEnrichSequentialVsDAG(b *testing.B) {
	var seq, dag time.Duration
	b.Run("sequential", func(b *testing.B) { seq = benchEnrich(b, 1) })
	b.Run("dag-4", func(b *testing.B) { dag = benchEnrich(b, 4) })
	if seq == 0 || dag == 0 {
		return
	}
	speedup := float64(seq) / float64(dag)
	b.Logf("per-record enrichment: sequential=%v dag-4=%v speedup=%.2fx", seq, dag, speedup)
	writeBenchEnrichJSON(b, seq, dag, speedup)
}

// writeBenchEnrichJSON emits the machine-readable baseline when the
// BENCH_ENRICH_JSON environment variable names a destination file.
func writeBenchEnrichJSON(b *testing.B, seq, dag time.Duration, speedup float64) {
	path := os.Getenv("BENCH_ENRICH_JSON")
	if path == "" {
		return
	}
	doc := struct {
		Records               int     `json:"records"`
		EnrichWorkers         int     `json:"enrich_workers"`
		ServiceRTTNs          int64   `json:"service_rtt_ns"`
		SequentialNsPerRecord int64   `json:"sequential_ns_per_record"`
		DAG4NsPerRecord       int64   `json:"dag4_ns_per_record"`
		SpeedupSeqOverDAG     float64 `json:"speedup_seq_over_dag"`
	}{benchRecords, benchWorkers, int64(benchRTT), int64(seq), int64(dag), speedup}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		b.Errorf("writing %s: %v", path, err)
	}
}
