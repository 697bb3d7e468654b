package main

import (
	"context"
	"time"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/screenshot"
	"github.com/smishkit/smishkit/internal/shard"
	"github.com/smishkit/smishkit/internal/whois"
)

// Timing shims sit between two tiers of the enrichment stack and record a
// span named "<layer>.<service>" for every call into the tier below them
// ("<layer>.<service>.bulk" for bulk calls). A shim keeps the bulk seam of
// what it wraps: batchmux type-asserts its inner client for the Bulk*
// interfaces and falls back to per-key calls without them, so a shim that
// hid the seam would make the traced program a different program.

// timeServices wraps every service of s with a shim recording under layer.
func timeServices(s core.Services, tr *tracer, layer string) core.Services {
	return core.Services{
		HLR:       timeHLR(s.HLR, tr, layer+".hlr"),
		Whois:     &timedWhois{s.Whois, tr, layer + ".whois"},
		CTLog:     &timedCT{s.CTLog, tr, layer + ".ctlog"},
		DNSDB:     timeDNS(s.DNSDB, tr, layer+".dnsdb"),
		AVScan:    timeAV(s.AVScan, tr, layer+".avscan"),
		Shortener: &timedShort{s.Shortener, tr, layer + ".shortener"},
	}
}

type timedHLR struct {
	next core.HLRLookuper
	tr   *tracer
	name string
}

func (t *timedHLR) Lookup(ctx context.Context, msisdn string) (hlr.Result, error) {
	start := time.Now()
	r, err := t.next.Lookup(ctx, msisdn)
	t.tr.call(ctx, t.name, start)
	return r, err
}

type timedBulkHLR struct {
	*timedHLR
	bulk core.BulkHLRLookuper
}

func (t *timedBulkHLR) LookupBatch(ctx context.Context, msisdns []string) ([]hlr.Result, []error) {
	start := time.Now()
	r, errs := t.bulk.LookupBatch(ctx, msisdns)
	t.tr.call(ctx, t.name+".bulk", start)
	return r, errs
}

func timeHLR(next core.HLRLookuper, tr *tracer, name string) core.HLRLookuper {
	if next == nil {
		return nil
	}
	t := &timedHLR{next, tr, name}
	if b, ok := next.(core.BulkHLRLookuper); ok {
		return &timedBulkHLR{t, b}
	}
	return t
}

type timedWhois struct {
	next core.WhoisLookuper
	tr   *tracer
	name string
}

func (t *timedWhois) Lookup(ctx context.Context, domain string) (whois.Record, bool, error) {
	start := time.Now()
	r, found, err := t.next.Lookup(ctx, domain)
	t.tr.call(ctx, t.name, start)
	return r, found, err
}

type timedCT struct {
	next core.CTSummarizer
	tr   *tracer
	name string
}

func (t *timedCT) Summary(ctx context.Context, domain string) (ctlog.Summary, error) {
	start := time.Now()
	r, err := t.next.Summary(ctx, domain)
	t.tr.call(ctx, t.name, start)
	return r, err
}

type timedDNS struct {
	next core.DNSResolver
	tr   *tracer
	name string
}

func (t *timedDNS) Resolutions(ctx context.Context, domain string) ([]dnsdb.Observation, error) {
	start := time.Now()
	r, err := t.next.Resolutions(ctx, domain)
	t.tr.call(ctx, t.name, start)
	return r, err
}

func (t *timedDNS) ASOf(ctx context.Context, ip string) (dnsdb.ASInfo, error) {
	start := time.Now()
	r, err := t.next.ASOf(ctx, ip)
	t.tr.call(ctx, t.name, start)
	return r, err
}

type timedBulkDNS struct {
	*timedDNS
	bulk core.BulkDNSResolver
}

func (t *timedBulkDNS) ResolutionsBatch(ctx context.Context, domains []string) ([][]dnsdb.Observation, []error) {
	start := time.Now()
	r, errs := t.bulk.ResolutionsBatch(ctx, domains)
	t.tr.call(ctx, t.name+".bulk", start)
	return r, errs
}

func timeDNS(next core.DNSResolver, tr *tracer, name string) core.DNSResolver {
	if next == nil {
		return nil
	}
	t := &timedDNS{next, tr, name}
	if b, ok := next.(core.BulkDNSResolver); ok {
		return &timedBulkDNS{t, b}
	}
	return t
}

type timedAV struct {
	next core.AVScanner
	tr   *tracer
	name string
}

func (t *timedAV) Scan(ctx context.Context, u string) (avscan.Report, error) {
	start := time.Now()
	r, err := t.next.Scan(ctx, u)
	t.tr.call(ctx, t.name, start)
	return r, err
}

func (t *timedAV) GSBLookup(ctx context.Context, u string) (avscan.GSBResult, error) {
	start := time.Now()
	r, err := t.next.GSBLookup(ctx, u)
	t.tr.call(ctx, t.name, start)
	return r, err
}

func (t *timedAV) Transparency(ctx context.Context, u string) (avscan.TransparencyResult, bool, error) {
	start := time.Now()
	r, blocked, err := t.next.Transparency(ctx, u)
	t.tr.call(ctx, t.name, start)
	return r, blocked, err
}

type timedBulkAV struct {
	*timedAV
	bulk core.BulkAVScanner
}

func (t *timedBulkAV) ScanBatch(ctx context.Context, urls []string) ([]avscan.Report, []error) {
	start := time.Now()
	r, errs := t.bulk.ScanBatch(ctx, urls)
	t.tr.call(ctx, t.name+".bulk", start)
	return r, errs
}

func (t *timedBulkAV) GSBLookupBatch(ctx context.Context, urls []string) ([]avscan.GSBResult, []error) {
	start := time.Now()
	r, errs := t.bulk.GSBLookupBatch(ctx, urls)
	t.tr.call(ctx, t.name+".bulk", start)
	return r, errs
}

func timeAV(next core.AVScanner, tr *tracer, name string) core.AVScanner {
	if next == nil {
		return nil
	}
	t := &timedAV{next, tr, name}
	if b, ok := next.(core.BulkAVScanner); ok {
		return &timedBulkAV{t, b}
	}
	return t
}

type timedShort struct {
	next core.ShortExpander
	tr   *tracer
	name string
}

func (t *timedShort) Expand(ctx context.Context, service, code string) (string, error) {
	start := time.Now()
	r, err := t.next.Expand(ctx, service, code)
	t.tr.call(ctx, t.name, start)
	return r, err
}

// timedExtractor times screenshot extraction, the bulk of curation, on
// every path: the barrier Curate, the streaming producers and the shard
// group's front pipeline all call the configured extractor.
type timedExtractor struct {
	next screenshot.Extractor
	tr   *tracer
}

func (t *timedExtractor) Name() string { return t.next.Name() }

func (t *timedExtractor) Extract(img screenshot.Image) (screenshot.Extraction, error) {
	start := time.Now()
	r, err := t.next.Extract(img)
	t.tr.call(context.Background(), "curate.extract", start)
	return r, err
}

// timedEnricher records one "shard.<i>" span per dispatch to a shard.
type timedEnricher struct {
	next shard.Enricher
	tr   *tracer
	name string
}

func (t *timedEnricher) EnrichAnnotate(ctx context.Context, recs []core.Record) ([]core.Record, error) {
	start := time.Now()
	out, err := t.next.EnrichAnnotate(ctx, recs)
	t.tr.call(ctx, t.name, start)
	return out, err
}
