package core

import (
	"context"
	"errors"
	"strings"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/whois"
)

// Op is one enrichment method as a value: key in, value and error out.
// The enrichment tiers (faults, batching, cache, breakers) are each one
// generic function from Op to Op, so a tier is written once rather than
// once per service method.
type Op[K, V any] struct {
	// Service is the telemetry name of the service the method belongs to
	// (hlr, whois, ctlog, dnsdb, avscan, shortener).
	Service string
	// Field names the record field the method fills, as an
	// EnrichmentError reports it when the call fails (hlr, whois, ct,
	// pdns, as_names, vt, gsb, gsb_status, final_url).
	Field string
	// Key is k's canonical lookup key: the cache stores under it, and the
	// batching tier coalesces on it and sends it upstream.
	Key func(k K) string
	// Call answers one key; nil means the service is absent.
	Call func(ctx context.Context, k K) (V, error)
	// Bulk answers many keys in one round trip, one value and error slot
	// per key; nil means the method has no bulk form.
	Bulk func(ctx context.Context, ks []K) ([]V, []error)
}

// WhoisAnswer bundles a WHOIS lookup's record with its found flag.
type WhoisAnswer struct {
	Record whois.Record
	Found  bool
}

// TransparencyAnswer bundles a transparency-report result with the flag
// for the site refusing the automated query.
type TransparencyAnswer struct {
	Result  avscan.TransparencyResult
	Blocked bool
}

// ShortLink is a short link's key: the shortener service and its code.
type ShortLink struct {
	Service, Code string
}

// Ops holds one op per method of the Services seam.
type Ops struct {
	HLR          Op[string, hlr.Result]
	Whois        Op[string, WhoisAnswer]
	CT           Op[string, ctlog.Summary]
	PDNS         Op[string, []dnsdb.Observation]
	ASN          Op[string, dnsdb.ASInfo]
	Scan         Op[string, avscan.Report]
	GSB          Op[string, avscan.GSBResult]
	Transparency Op[string, TransparencyAnswer]
	Expand       Op[ShortLink, string]
}

// normKey folds case and surrounding whitespace, matching the
// case-insensitive stores behind the services, so "Bit.ly" and " bit.ly"
// are one key. The URL-reputation keys stay raw: a URL's path is
// case-sensitive.
func normKey(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

func rawKey(s string) string { return s }

func shortKey(l ShortLink) string { return normKey(l.Service) + "/" + l.Code }

// OpsOf returns the ops behind s, one per method; an absent service
// leaves its ops zero. It is the one place the optional Bulk* seam is
// detected: a service implementing its Bulk* interface gets Bulk set.
func OpsOf(s Services) Ops {
	var o Ops
	if s.HLR != nil {
		o.HLR = Op[string, hlr.Result]{Service: "hlr", Field: "hlr", Key: normKey, Call: s.HLR.Lookup}
		if b, ok := s.HLR.(BulkHLRLookuper); ok {
			o.HLR.Bulk = b.LookupBatch
		}
	}
	if w := s.Whois; w != nil {
		o.Whois = Op[string, WhoisAnswer]{Service: "whois", Field: "whois", Key: normKey,
			Call: func(ctx context.Context, domain string) (WhoisAnswer, error) {
				rec, found, err := w.Lookup(ctx, domain)
				return WhoisAnswer{Record: rec, Found: found}, err
			}}
	}
	if s.CTLog != nil {
		o.CT = Op[string, ctlog.Summary]{Service: "ctlog", Field: "ct", Key: normKey, Call: s.CTLog.Summary}
	}
	if s.DNSDB != nil {
		o.PDNS = Op[string, []dnsdb.Observation]{Service: "dnsdb", Field: "pdns", Key: normKey, Call: s.DNSDB.Resolutions}
		o.ASN = Op[string, dnsdb.ASInfo]{Service: "dnsdb", Field: "as_names", Key: normKey, Call: s.DNSDB.ASOf}
		if b, ok := s.DNSDB.(BulkDNSResolver); ok {
			o.PDNS.Bulk = b.ResolutionsBatch
		}
	}
	if av := s.AVScan; av != nil {
		o.Scan = Op[string, avscan.Report]{Service: "avscan", Field: "vt", Key: rawKey, Call: av.Scan}
		o.GSB = Op[string, avscan.GSBResult]{Service: "avscan", Field: "gsb", Key: rawKey, Call: av.GSBLookup}
		o.Transparency = Op[string, TransparencyAnswer]{Service: "avscan", Field: "gsb_status", Key: rawKey,
			Call: func(ctx context.Context, u string) (TransparencyAnswer, error) {
				res, blocked, err := av.Transparency(ctx, u)
				return TransparencyAnswer{Result: res, Blocked: blocked}, err
			}}
		if b, ok := av.(BulkAVScanner); ok {
			o.Scan.Bulk, o.GSB.Bulk = b.ScanBatch, b.GSBLookupBatch
		}
	}
	if x := s.Shortener; x != nil {
		o.Expand = Op[ShortLink, string]{Service: "shortener", Field: "final_url", Key: shortKey,
			Call: func(ctx context.Context, l ShortLink) (string, error) {
				return x.Expand(ctx, l.Service, l.Code)
			}}
	}
	return o
}

// Services returns the Services seam over o, for callers that take the
// service interfaces rather than ops. A service whose ops are absent is
// nil; a service implements its Bulk* interface only when its ops have
// Bulk.
func (o Ops) Services() Services {
	r := opsRef{&o}
	var s Services
	switch {
	case o.HLR.Call == nil:
	case o.HLR.Bulk != nil:
		s.HLR = bulkHLROps{hlrOps{r}}
	default:
		s.HLR = hlrOps{r}
	}
	if o.Whois.Call != nil {
		s.Whois = whoisOps{r}
	}
	if o.CT.Call != nil {
		s.CTLog = ctOps{r}
	}
	switch {
	case o.PDNS.Call == nil || o.ASN.Call == nil:
	case o.PDNS.Bulk != nil:
		s.DNSDB = bulkDNSOps{dnsOps{r}}
	default:
		s.DNSDB = dnsOps{r}
	}
	switch {
	case o.Scan.Call == nil || o.GSB.Call == nil || o.Transparency.Call == nil:
	case o.Scan.Bulk != nil && o.GSB.Bulk != nil:
		s.AVScan = bulkAVOps{avOps{r}}
	default:
		s.AVScan = avOps{r}
	}
	if o.Expand.Call != nil {
		s.Shortener = shortOps{r}
	}
	return s
}

// opsRef is embedded in every service Ops.Services makes: the ops its
// methods call.
type opsRef struct{ o *Ops }

type hlrOps struct{ opsRef }

func (s hlrOps) Lookup(ctx context.Context, msisdn string) (hlr.Result, error) {
	return s.o.HLR.Call(ctx, msisdn)
}

type bulkHLROps struct{ hlrOps }

func (s bulkHLROps) LookupBatch(ctx context.Context, msisdns []string) ([]hlr.Result, []error) {
	return s.o.HLR.Bulk(ctx, msisdns)
}

type whoisOps struct{ opsRef }

func (s whoisOps) Lookup(ctx context.Context, domain string) (whois.Record, bool, error) {
	a, err := s.o.Whois.Call(ctx, domain)
	return a.Record, a.Found, err
}

type ctOps struct{ opsRef }

func (s ctOps) Summary(ctx context.Context, domain string) (ctlog.Summary, error) {
	return s.o.CT.Call(ctx, domain)
}

type dnsOps struct{ opsRef }

func (s dnsOps) Resolutions(ctx context.Context, domain string) ([]dnsdb.Observation, error) {
	return s.o.PDNS.Call(ctx, domain)
}

func (s dnsOps) ASOf(ctx context.Context, ip string) (dnsdb.ASInfo, error) {
	return s.o.ASN.Call(ctx, ip)
}

type bulkDNSOps struct{ dnsOps }

func (s bulkDNSOps) ResolutionsBatch(ctx context.Context, domains []string) ([][]dnsdb.Observation, []error) {
	return s.o.PDNS.Bulk(ctx, domains)
}

type avOps struct{ opsRef }

func (s avOps) Scan(ctx context.Context, u string) (avscan.Report, error) {
	return s.o.Scan.Call(ctx, u)
}

func (s avOps) GSBLookup(ctx context.Context, u string) (avscan.GSBResult, error) {
	return s.o.GSB.Call(ctx, u)
}

func (s avOps) Transparency(ctx context.Context, u string) (avscan.TransparencyResult, bool, error) {
	a, err := s.o.Transparency.Call(ctx, u)
	return a.Result, a.Blocked, err
}

type bulkAVOps struct{ avOps }

func (s bulkAVOps) ScanBatch(ctx context.Context, urls []string) ([]avscan.Report, []error) {
	return s.o.Scan.Bulk(ctx, urls)
}

func (s bulkAVOps) GSBLookupBatch(ctx context.Context, urls []string) ([]avscan.GSBResult, []error) {
	return s.o.GSB.Bulk(ctx, urls)
}

type shortOps struct{ opsRef }

func (s shortOps) Expand(ctx context.Context, service, code string) (string, error) {
	return s.o.Expand.Call(ctx, ShortLink{Service: service, Code: code})
}

// ErrMissingSlot marks a key a bulk call answered no slot for: the call
// returned fewer values or errors than it was given keys.
var ErrMissingSlot = errors.New("core: bulk result missing its slot")

// BulkSlot returns slot i of a bulk answer: its error, else its value,
// else ErrMissingSlot when the answer is too short to hold slot i. A
// missing slot must degrade its own key, never pass as a zero value.
func BulkSlot[V any](vals []V, errs []error, i int) (V, error) {
	var zero V
	switch {
	case i < len(errs) && errs[i] != nil:
		return zero, errs[i]
	case i < len(vals):
		return vals[i], nil
	}
	return zero, ErrMissingSlot
}
