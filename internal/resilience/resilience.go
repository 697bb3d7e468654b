package resilience

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/telemetry"
	"github.com/smishkit/smishkit/internal/whois"
)

// Config assembles the resilience layer: one breaker per enrichment
// service plus the pipeline-side budget and abort knobs (consumed by
// core.Options, wired by the facade). The zero value selects defaults
// everywhere.
type Config struct {
	// Breaker is the default per-service breaker tuning.
	Breaker BreakerConfig
	// PerService overrides Breaker for one service (keyed hlr, whois,
	// ctlog, dnsdb, avscan, shortener; full replacement).
	PerService map[string]BreakerConfig
	// Classify overrides the failure classifier (default Classify). It is
	// process-local: it does not cross to a shard worker process, which
	// runs the default.
	Classify func(error) Outcome `json:"-"`

	// RecordBudget bounds one record's total enrichment wall time; an
	// expired budget degrades the record's remaining fields rather than
	// aborting the run (0 = unbounded).
	RecordBudget time.Duration
	// CallTimeout bounds each individual service call, so one hung
	// connection can't consume a whole record budget (0 = unbounded).
	CallTimeout time.Duration
	// AbortFailureRate is the fraction of failed service calls above
	// which the run aborts — degradation is for partial outages, not for
	// a world where everything is down. 0 selects the pipeline default
	// (0.9); negative disables the abort.
	AbortFailureRate float64
	// MinAbortCalls is the minimum call sample before the abort check
	// fires (0 selects the pipeline default of 50).
	MinAbortCalls int
}

func (c Config) forService(name string) BreakerConfig {
	if bc, ok := c.PerService[name]; ok {
		return bc
	}
	return c.Breaker
}

// Breakers is the per-service breaker set decorating a core.Services.
type Breakers struct {
	perService map[string]*Breaker
}

// New builds one breaker per enrichment service, recording into reg (nil
// allowed).
func New(cfg Config, reg *telemetry.Registry) *Breakers {
	bs := &Breakers{perService: make(map[string]*Breaker, 6)}
	for _, name := range []string{"hlr", "whois", "ctlog", "dnsdb", "avscan", "shortener"} {
		b := NewBreaker(name, cfg.forService(name), reg)
		if cfg.Classify != nil {
			b.SetClassifier(cfg.Classify)
		}
		bs.perService[name] = b
	}
	return bs
}

// Breaker returns the named service's breaker (nil for unknown names).
func (bs *Breakers) Breaker(name string) *Breaker { return bs.perService[name] }

// WrapServices decorates every non-nil service with its breaker. Nil
// services stay nil, preserving stage-skipping. Multi-method services
// (dnsdb, avscan) share one breaker: an outage takes the whole service
// down, not one endpoint.
func (bs *Breakers) WrapServices(s core.Services) core.Services {
	if s.HLR != nil {
		s.HLR = &guardedHLR{next: s.HLR, b: bs.perService["hlr"]}
	}
	if s.Whois != nil {
		s.Whois = &guardedWhois{next: s.Whois, b: bs.perService["whois"]}
	}
	if s.CTLog != nil {
		s.CTLog = &guardedCT{next: s.CTLog, b: bs.perService["ctlog"]}
	}
	if s.DNSDB != nil {
		s.DNSDB = &guardedDNS{next: s.DNSDB, b: bs.perService["dnsdb"]}
	}
	if s.AVScan != nil {
		s.AVScan = &guardedAV{next: s.AVScan, b: bs.perService["avscan"]}
	}
	if s.Shortener != nil {
		s.Shortener = &guardedShort{next: s.Shortener, b: bs.perService["shortener"]}
	}
	return s
}

type guardedHLR struct {
	next core.HLRLookuper
	b    *Breaker
}

func (d *guardedHLR) Lookup(ctx context.Context, msisdn string) (hlr.Result, error) {
	if err := d.b.Allow(); err != nil {
		return hlr.Result{}, err
	}
	res, err := d.next.Lookup(ctx, msisdn)
	d.b.Record(err)
	return res, err
}

type guardedWhois struct {
	next core.WhoisLookuper
	b    *Breaker
}

func (d *guardedWhois) Lookup(ctx context.Context, domain string) (whois.Record, bool, error) {
	if err := d.b.Allow(); err != nil {
		return whois.Record{}, false, err
	}
	rec, found, err := d.next.Lookup(ctx, domain)
	d.b.Record(err)
	return rec, found, err
}

type guardedCT struct {
	next core.CTSummarizer
	b    *Breaker
}

func (d *guardedCT) Summary(ctx context.Context, domain string) (ctlog.Summary, error) {
	if err := d.b.Allow(); err != nil {
		return ctlog.Summary{}, err
	}
	sum, err := d.next.Summary(ctx, domain)
	d.b.Record(err)
	return sum, err
}

type guardedDNS struct {
	next core.DNSResolver
	b    *Breaker
}

func (d *guardedDNS) Resolutions(ctx context.Context, domain string) ([]dnsdb.Observation, error) {
	if err := d.b.Allow(); err != nil {
		return nil, err
	}
	obs, err := d.next.Resolutions(ctx, domain)
	d.b.Record(err)
	return obs, err
}

func (d *guardedDNS) ASOf(ctx context.Context, ip string) (dnsdb.ASInfo, error) {
	if err := d.b.Allow(); err != nil {
		return dnsdb.ASInfo{}, err
	}
	info, err := d.next.ASOf(ctx, ip)
	d.b.Record(err)
	return info, err
}

type guardedAV struct {
	next core.AVScanner
	b    *Breaker
}

func (d *guardedAV) Scan(ctx context.Context, u string) (avscan.Report, error) {
	if err := d.b.Allow(); err != nil {
		return avscan.Report{}, err
	}
	rep, err := d.next.Scan(ctx, u)
	d.b.Record(err)
	return rep, err
}

func (d *guardedAV) GSBLookup(ctx context.Context, u string) (avscan.GSBResult, error) {
	if err := d.b.Allow(); err != nil {
		return avscan.GSBResult{}, err
	}
	res, err := d.next.GSBLookup(ctx, u)
	d.b.Record(err)
	return res, err
}

func (d *guardedAV) Transparency(ctx context.Context, u string) (avscan.TransparencyResult, bool, error) {
	if err := d.b.Allow(); err != nil {
		return avscan.TransparencyResult{}, false, err
	}
	res, blocked, err := d.next.Transparency(ctx, u)
	d.b.Record(err)
	return res, blocked, err
}

type guardedShort struct {
	next core.ShortExpander
	b    *Breaker
}

func (d *guardedShort) Expand(ctx context.Context, service, code string) (string, error) {
	if err := d.b.Allow(); err != nil {
		return "", err
	}
	target, err := d.next.Expand(ctx, service, code)
	d.b.Record(err)
	return target, err
}

// BreakerStats is one service breaker's scoreboard.
type BreakerStats struct {
	State         string `json:"state"`
	Opens         int64  `json:"opens"`
	ShortCircuits int64  `json:"short_circuits"`
	Probes        int64  `json:"probes"`
	Failures      int64  `json:"failures"`
	Successes     int64  `json:"successes"`
}

// Stats maps service name to its breaker scoreboard.
type Stats map[string]BreakerStats

// Stats snapshots every breaker.
func (bs *Breakers) Stats() Stats {
	out := make(Stats, len(bs.perService))
	for name, b := range bs.perService {
		out[name] = BreakerStats{
			State:         b.State().String(),
			Opens:         b.opens.Value(),
			ShortCircuits: b.shorts.Value(),
			Probes:        b.probesC.Value(),
			Failures:      b.fails.Value(),
			Successes:     b.succs.Value(),
		}
	}
	return out
}

// Write renders stats as an aligned text table, services sorted by name.
func Write(w io.Writer, stats Stats) error {
	if _, err := fmt.Fprintf(w, "resilience breakers\n  %-10s %-9s %7s %9s %7s %9s %10s\n",
		"service", "state", "opens", "shorted", "probes", "failures", "successes"); err != nil {
		return err
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := stats[name]
		if _, err := fmt.Fprintf(w, "  %-10s %-9s %7d %9d %7d %9d %10d\n",
			name, s.State, s.Opens, s.ShortCircuits, s.Probes, s.Failures, s.Successes); err != nil {
			return err
		}
	}
	return nil
}
