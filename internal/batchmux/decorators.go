package batchmux

import (
	"context"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Mux is one shared batching tier: a per-service set of windowed batchers
// that decorate the core.Ops seam. Build one per study and attach it
// with Wrap.
type Mux struct {
	cfg        Config
	sem        chan struct{}
	perService map[string]*metrics
}

// New builds a mux recording into reg (nil is allowed: counters become
// no-ops and Stats still works off zero values — but pair it with the
// study's registry so batching effectiveness lands next to the client
// metrics).
func New(cfg Config, reg *telemetry.Registry) *Mux {
	cfg = cfg.withDefaults()
	m := &Mux{
		cfg:        cfg,
		sem:        make(chan struct{}, maxInFlight),
		perService: make(map[string]*metrics, 3),
	}
	for _, name := range []string{"hlr", "dnsdb", "avscan"} {
		m.perService[name] = newMetrics(reg, name)
	}
	return m
}

// Wrap batches every present batchable op: HLR lookups, pDNS
// resolutions, vendor-aggregate scans and Safe Browsing lookups (the last
// two in separate windows on one scoreboard). A batchable op without a
// Bulk form gets a counting per-key fallthrough, so the gap is visible in
// telemetry; the other ops (WHOIS, CT, ASOf, transparency, shortener
// expansion) have no bulk form and pass through. The wrapped ops have no
// Bulk form themselves: the windows already batch everything below them.
func (m *Mux) Wrap(o core.Ops) core.Ops {
	o.HLR = batched(o.HLR, m)
	o.PDNS = batched(o.PDNS, m)
	o.Scan = batched(o.Scan, m)
	o.GSB = batched(o.GSB, m)
	return o
}

// WrapServices is Wrap for callers holding service clients.
func (m *Mux) WrapServices(s core.Services) core.Services {
	return m.Wrap(core.OpsOf(s)).Services()
}

// batched parks each call in a window of op's service that flushes as one
// op.Bulk call over the canonical keys, or counts a per-key fallthrough
// when op has no bulk form. An absent op stays absent.
func batched[V any](op core.Op[string, V], m *Mux) core.Op[string, V] {
	if op.Call == nil {
		return op
	}
	met, call, key := m.perService[op.Service], op.Call, op.Key
	if op.Bulk == nil {
		op.Call = func(ctx context.Context, k string) (V, error) {
			met.fellThrough.Inc()
			return call(ctx, k)
		}
		return op
	}
	b := newBatcher(m.cfg, m.sem, met, op.Bulk)
	op.Call = func(ctx context.Context, k string) (V, error) { return b.get(ctx, key(k)) }
	op.Bulk = nil
	return op
}

// Stats snapshots every service's counters.
func (m *Mux) Stats() Stats {
	out := make(Stats, len(m.perService))
	for name, met := range m.perService {
		out[name] = ServiceStats{
			Flushes:     met.flushes.Value(),
			BatchedKeys: met.batchSize.Value(),
			Coalesced:   met.coalesced.Value(),
			Fallthrough: met.fellThrough.Value(),
		}
	}
	return out
}
