package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/shortener"
	"github.com/smishkit/smishkit/internal/telemetry"
	"github.com/smishkit/smishkit/internal/whois"
)

// The enrichment-client seam: one narrow interface per intelligence
// service, shaped exactly like the concrete client in its package. The
// pipeline only ever calls these methods, so anything — the real client,
// an enrichcache decorator, a fake in tests — plugs in without touching
// pipeline code.

// ErrShortCircuited marks a service call that a local guard (such as an
// open circuit breaker) rejected without reaching the service. Decorators
// wrap it so the pipeline can tell a shed call from a fresh failure: the
// record's field is still degraded, but the failure it echoes was already
// counted when the guard tripped, so it stays out of the run-level
// failure-rate accounting — otherwise an open breaker doing its job would
// push the run over Options.AbortFailureRate and abort the very sweep it
// was protecting.
var ErrShortCircuited = errors.New("core: service call short-circuited")

// HLRLookuper resolves an MSISDN to its HLR record (§3.3.1).
type HLRLookuper interface {
	Lookup(ctx context.Context, msisdn string) (hlr.Result, error)
}

// WhoisLookuper fetches a domain's registration record; found is false
// for unregistered domains (§3.3.3).
type WhoisLookuper interface {
	Lookup(ctx context.Context, domain string) (whois.Record, bool, error)
}

// CTSummarizer aggregates a domain's certificate-transparency issuance
// history (§3.3.4).
type CTSummarizer interface {
	Summary(ctx context.Context, domain string) (ctlog.Summary, error)
}

// DNSResolver serves passive-DNS history and IP-to-AS mapping; ASOf
// returns dnsdb.ErrNoRoute for unannounced space (§3.3.4).
type DNSResolver interface {
	Resolutions(ctx context.Context, domain string) ([]dnsdb.Observation, error)
	ASOf(ctx context.Context, ip string) (dnsdb.ASInfo, error)
}

// AVScanner runs the three URL-reputation paths: the multi-vendor
// aggregate, the Safe Browsing API, and the transparency-report site
// (blocked reports the site refusing the automated query, §3.3.5).
type AVScanner interface {
	Scan(ctx context.Context, u string) (avscan.Report, error)
	GSBLookup(ctx context.Context, u string) (avscan.GSBResult, error)
	Transparency(ctx context.Context, u string) (avscan.TransparencyResult, bool, error)
}

// ShortExpander resolves a short link to its target, returning
// shortener.ErrNotFound / shortener.ErrTakenDown for lost chains (§3.3.5).
type ShortExpander interface {
	Expand(ctx context.Context, service, code string) (string, error)
}

// The optional bulk seam: a service that can answer many keys in one
// round trip additionally implements its Bulk* interface. Every batch
// method returns parallel result and error slices, one slot per input key
// — per-key error demultiplexing is the contract, so one bad key degrades
// one record, never the batch. OpsOf detects these by type assertion and
// sets the op's Bulk; a service without one falls through to the per-key
// methods.

// BulkHLRLookuper resolves many MSISDNs in one call.
type BulkHLRLookuper interface {
	LookupBatch(ctx context.Context, msisdns []string) ([]hlr.Result, []error)
}

// BulkDNSResolver serves many domains' passive-DNS histories in one call.
type BulkDNSResolver interface {
	ResolutionsBatch(ctx context.Context, domains []string) ([][]dnsdb.Observation, []error)
}

// BulkAVScanner runs the scriptable URL-reputation paths (the vendor
// aggregate and the Safe Browsing status) over many URLs in one call.
// Transparency is deliberately absent: the transparency site blocks
// automation, so there is nothing to batch.
type BulkAVScanner interface {
	ScanBatch(ctx context.Context, urls []string) ([]avscan.Report, []error)
	GSBLookupBatch(ctx context.Context, urls []string) ([]avscan.GSBResult, []error)
}

// The concrete clients are the canonical implementations.
var (
	_ HLRLookuper   = (*hlr.Client)(nil)
	_ WhoisLookuper = (*whois.Client)(nil)
	_ CTSummarizer  = (*ctlog.Client)(nil)
	_ DNSResolver   = (*dnsdb.Client)(nil)
	_ AVScanner     = (*avscan.Client)(nil)
	_ ShortExpander = (*shortener.Client)(nil)

	_ BulkHLRLookuper = (*hlr.Client)(nil)
	_ BulkDNSResolver = (*dnsdb.Client)(nil)
	_ BulkAVScanner   = (*avscan.Client)(nil)
)

// Services bundles the enrichment clients behind the per-service
// interfaces. Any nil service skips its enrichment stage, mirroring how
// the paper's analyses draw on different data sources (Table 2).
// The enrichment tiers wrap its methods as ops (see OpsOf).
type Services struct {
	HLR       HLRLookuper
	Whois     WhoisLookuper
	CTLog     CTSummarizer
	DNSDB     DNSResolver
	AVScan    AVScanner
	Shortener ShortExpander
}

// Endpoint locates one upstream enrichment service: its base URL and the
// API key its client sends (unused by the keyless CT-log and shortener
// clients).
type Endpoint struct {
	URL string `json:"url"`
	Key string `json:"key,omitempty"`
}

// Endpoints locates all six upstream enrichment services. It is plain
// data, so it crosses the process boundary as JSON: a shard worker
// process builds its clients from the same value the simulation builds
// its own from.
type Endpoints struct {
	HLR       Endpoint `json:"hlr"`
	Whois     Endpoint `json:"whois"`
	CTLog     Endpoint `json:"ctlog"`
	DNSDB     Endpoint `json:"dnsdb"`
	AVScan    Endpoint `json:"avscan"`
	Shortener Endpoint `json:"shortener"`
}

// Validate reports the first service that has no URL.
func (e Endpoints) Validate() error {
	for _, s := range []struct {
		name string
		ep   Endpoint
	}{
		{"hlr", e.HLR}, {"whois", e.Whois}, {"ctlog", e.CTLog},
		{"dnsdb", e.DNSDB}, {"avscan", e.AVScan}, {"shortener", e.Shortener},
	} {
		if s.ep.URL == "" {
			return fmt.Errorf("core: no %s URL", s.name)
		}
	}
	return nil
}

// Services returns one HTTP client per endpoint, each instrumented into
// reg under "client.<svc>.*". Instruments are named, so clients from
// repeated calls on one registry share the same counters.
func (e Endpoints) Services(reg *telemetry.Registry) Services {
	return Services{
		HLR:       hlr.NewClient(e.HLR.URL, e.HLR.Key).Instrument(reg),
		Whois:     whois.NewClient(e.Whois.URL, e.Whois.Key).Instrument(reg),
		CTLog:     ctlog.NewClient(e.CTLog.URL).Instrument(reg),
		DNSDB:     dnsdb.NewClient(e.DNSDB.URL, e.DNSDB.Key).Instrument(reg),
		AVScan:    avscan.NewClient(e.AVScan.URL, e.AVScan.Key).Instrument(reg),
		Shortener: shortener.NewClient(e.Shortener.URL).Instrument(reg),
	}
}
