// Benchmark and pinning test for the windowed batching tier: on a skewed
// corpus (many records sharing few senders and domains, as in the paper's
// Tables 5-8) the batching decorators must cut backend requests to the
// batchable services by at least 3x while producing byte-identical
// enrichment output. Run with:
//
//	go test -run=NONE -bench=EnrichBatched -benchtime=1x -count=5 .
package smishkit

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/batchmux"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/senderid"
)

// The corpus is deliberately skewed: records outnumber both sender pools,
// so in-window coalescing and multi-key flushes have duplicates to exploit
// — the shape the paper reports for real smishing campaigns.
const (
	batchBenchRecords = 96
	batchBenchPhones  = 8
	batchBenchDomains = 12
)

// callCounter counts backend requests to the batchable endpoints (HLR
// lookup, pDNS resolutions, VT scan, GSB). One bulk request counts once,
// exactly like one HTTP round trip would.
type callCounter struct{ calls atomic.Int64 }

func (c *callCounter) hit() { c.calls.Add(1) }

// Deterministic per-key answers, shared by the single and bulk paths, so
// the batched and unbatched runs must produce identical records — any slot
// mix-up in the demultiplexer shows up as a dataset diff.

func bbHLRResult(msisdn string) hlr.Result {
	return hlr.Result{Known: true, Source: "hlr:" + msisdn}
}

func bbObservations(domain string) []dnsdb.Observation {
	return []dnsdb.Observation{
		{Domain: domain, IP: "192.0.2.10"},
		{Domain: domain, IP: "198.51.100.20"},
	}
}

func bbReport(u string) avscan.Report {
	return avscan.Report{URL: u, Stats: avscan.ReportStats{Malicious: 3, Harmless: len(u) % 5}}
}

func bbGSB(u string) avscan.GSBResult {
	return avscan.GSBResult{URL: u, Matched: true, Threat: "SOCIAL_ENGINEERING"}
}

type bbHLR struct{ c *callCounter }

func (s bbHLR) Lookup(_ context.Context, msisdn string) (hlr.Result, error) {
	s.c.hit()
	return bbHLRResult(msisdn), nil
}

func (s bbHLR) LookupBatch(_ context.Context, msisdns []string) ([]hlr.Result, []error) {
	s.c.hit()
	out := make([]hlr.Result, len(msisdns))
	for i, m := range msisdns {
		out[i] = bbHLRResult(m)
	}
	return out, make([]error, len(msisdns))
}

type bbDNS struct{ c *callCounter }

func (s bbDNS) Resolutions(_ context.Context, domain string) ([]dnsdb.Observation, error) {
	s.c.hit()
	return bbObservations(domain), nil
}

func (s bbDNS) ResolutionsBatch(_ context.Context, domains []string) ([][]dnsdb.Observation, []error) {
	s.c.hit()
	out := make([][]dnsdb.Observation, len(domains))
	for i, d := range domains {
		out[i] = bbObservations(d)
	}
	return out, make([]error, len(domains))
}

func (s bbDNS) ASOf(_ context.Context, ip string) (dnsdb.ASInfo, error) {
	// The IP->AS chain fans out from each record's own observations and is
	// never batched, so it is not counted.
	return dnsdb.ASInfo{ASN: 64500, Name: "BB-NET-" + ip, Country: "US"}, nil
}

type bbAV struct{ c *callCounter }

func (s bbAV) Scan(_ context.Context, u string) (avscan.Report, error) {
	s.c.hit()
	return bbReport(u), nil
}

func (s bbAV) ScanBatch(_ context.Context, urls []string) ([]avscan.Report, []error) {
	s.c.hit()
	out := make([]avscan.Report, len(urls))
	for i, u := range urls {
		out[i] = bbReport(u)
	}
	return out, make([]error, len(urls))
}

func (s bbAV) GSBLookup(_ context.Context, u string) (avscan.GSBResult, error) {
	s.c.hit()
	return bbGSB(u), nil
}

func (s bbAV) GSBLookupBatch(_ context.Context, urls []string) ([]avscan.GSBResult, []error) {
	s.c.hit()
	out := make([]avscan.GSBResult, len(urls))
	for i, u := range urls {
		out[i] = bbGSB(u)
	}
	return out, make([]error, len(urls))
}

func (s bbAV) Transparency(_ context.Context, u string) (avscan.TransparencyResult, bool, error) {
	return avscan.TransparencyResult{URL: u}, false, nil
}

func bbServices(c *callCounter) core.Services {
	return core.Services{
		HLR:    bbHLR{c},
		Whois:  benchWhois{},
		CTLog:  benchCT{},
		DNSDB:  bbDNS{c},
		AVScan: bbAV{c},
	}
}

// batchBenchSet builds the skewed record set: every record has a phone
// sender and a dedicated-domain URL, drawn from small pools.
func batchBenchSet(n int) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		u := fmt.Sprintf("https://evil-clinic-%d.xyz/login", i%batchBenchDomains)
		recs[i] = core.Record{
			ID:         fmt.Sprintf("bb-%d", i),
			Forum:      corpus.ForumSmishtank,
			Text:       "Your parcel is held, pay the fee: " + u,
			SenderRaw:  fmt.Sprintf("+44770090%04d", i%batchBenchPhones),
			SenderKind: senderid.KindPhone,
			ShownURL:   u,
		}
	}
	return recs
}

// runBatchEnrich enriches one skewed record set, optionally through the
// batching tier, and returns the batchable backend call count plus the
// enriched dataset.
func runBatchEnrich(tb testing.TB, batched bool) (int64, *core.Dataset) {
	tb.Helper()
	c := &callCounter{}
	services := bbServices(c)
	if batched {
		mux := batchmux.New(batchmux.Config{Window: 16, FlushInterval: 2 * time.Millisecond}, nil)
		services = mux.WrapServices(services)
	}
	pipe, err := core.NewPipeline(services, core.Options{
		EnrichWorkers: 16,
		StepWorkers:   4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ds := &core.Dataset{Records: batchBenchSet(batchBenchRecords)}
	if err := pipe.Enrich(context.Background(), ds); err != nil {
		tb.Fatal(err)
	}
	return c.calls.Load(), ds
}

// TestBatchedEnrichmentFewerCallsSameOutput pins the tentpole acceptance
// criterion: on the skewed corpus the batching tier makes at least 3x
// fewer backend requests than per-key enrichment, and the enriched dataset
// is identical record for record.
func TestBatchedEnrichmentFewerCallsSameOutput(t *testing.T) {
	unCalls, unDS := runBatchEnrich(t, false)
	baCalls, baDS := runBatchEnrich(t, true)

	if want := int64(4 * batchBenchRecords); unCalls != want {
		t.Errorf("unbatched run made %d backend calls, want %d (4 per record)", unCalls, want)
	}
	if baCalls*3 > unCalls {
		t.Errorf("batched run made %d backend calls vs %d unbatched; want at least 3x fewer",
			baCalls, unCalls)
	}

	if len(unDS.Records) != len(baDS.Records) {
		t.Fatalf("record counts differ: %d unbatched vs %d batched",
			len(unDS.Records), len(baDS.Records))
	}
	// Enrich mutates records in place, so order is the input order in both
	// runs and the sets compare pairwise.
	for i := range unDS.Records {
		if unDS.Records[i].Degraded() || baDS.Records[i].Degraded() {
			t.Fatalf("record %d degraded: unbatched=%v batched=%v", i,
				unDS.Records[i].EnrichmentErrors, baDS.Records[i].EnrichmentErrors)
		}
		if !reflect.DeepEqual(unDS.Records[i], baDS.Records[i]) {
			t.Errorf("record %d differs between batched and unbatched enrichment:\nunbatched: %+v\nbatched:   %+v",
				i, unDS.Records[i], baDS.Records[i])
		}
	}
}

// BenchmarkEnrichBatched measures the batching tier's backend-call
// reduction on the skewed corpus. The headline metric is calls per 1k
// records, not wall time: partial windows deliberately trade a flush
// interval of latency for the bulk discount.
func BenchmarkEnrichBatched(b *testing.B) {
	var unbatched, batched float64
	run := func(useBatch bool) func(b *testing.B) {
		return func(b *testing.B) {
			var calls int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, _ := runBatchEnrich(b, useBatch)
				calls += n
			}
			b.StopTimer()
			per1k := float64(calls) / float64(b.N) / batchBenchRecords * 1000
			b.ReportMetric(per1k, "calls/1krec")
			if useBatch {
				batched = per1k
			} else {
				unbatched = per1k
			}
		}
	}
	b.Run("unbatched", run(false))
	b.Run("batched", run(true))
	if unbatched == 0 || batched == 0 {
		return
	}
	reduction := unbatched / batched
	b.Logf("backend calls per 1k records: unbatched=%.0f batched=%.0f reduction=%.1fx",
		unbatched, batched, reduction)
}
