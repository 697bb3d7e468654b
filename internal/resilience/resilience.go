package resilience

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Config assembles the resilience layer: one breaker per enrichment
// service. The enrichment budgets and the failure-rate abort live in
// core.Options. The zero value selects defaults everywhere.
type Config struct {
	// Breaker tunes every service's breaker.
	Breaker BreakerConfig
}

// Breakers is the per-service breaker set decorating a core.Ops.
type Breakers struct {
	perService map[string]*Breaker
}

// New builds one breaker per enrichment service, recording into reg (nil
// allowed).
func New(cfg Config, reg *telemetry.Registry) *Breakers {
	bs := &Breakers{perService: make(map[string]*Breaker, 6)}
	for _, name := range []string{"hlr", "whois", "ctlog", "dnsdb", "avscan", "shortener"} {
		bs.perService[name] = NewBreaker(name, cfg.Breaker, reg)
	}
	return bs
}

// Breaker returns the named service's breaker (nil for unknown names).
func (bs *Breakers) Breaker(name string) *Breaker { return bs.perService[name] }

// Wrap puts every present op behind its service's breaker. Absent ops
// stay absent, preserving stage-skipping. Multi-method services (dnsdb,
// avscan) share one breaker: an outage takes the whole service down, not
// one endpoint. The wrapped ops have no Bulk form: the pipeline above
// calls per key.
func (bs *Breakers) Wrap(o core.Ops) core.Ops {
	o.HLR = guarded(o.HLR, bs)
	o.Whois = guarded(o.Whois, bs)
	o.CT = guarded(o.CT, bs)
	o.PDNS = guarded(o.PDNS, bs)
	o.ASN = guarded(o.ASN, bs)
	o.Scan = guarded(o.Scan, bs)
	o.GSB = guarded(o.GSB, bs)
	o.Transparency = guarded(o.Transparency, bs)
	o.Expand = guarded(o.Expand, bs)
	return o
}

// WrapServices is Wrap for callers holding service clients.
func (bs *Breakers) WrapServices(s core.Services) core.Services {
	return bs.Wrap(core.OpsOf(s)).Services()
}

// guarded admits each call of op through its service's breaker and
// records the outcome; a shed call returns ErrOpen without reaching op.
// An absent op stays absent.
func guarded[K, V any](op core.Op[K, V], bs *Breakers) core.Op[K, V] {
	if op.Call == nil {
		return op
	}
	b, call := bs.perService[op.Service], op.Call
	op.Call = func(ctx context.Context, k K) (V, error) {
		if err := b.Allow(); err != nil {
			var zero V
			return zero, err
		}
		v, err := call(ctx, k)
		b.Record(err)
		return v, err
	}
	op.Bulk = nil
	return op
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
