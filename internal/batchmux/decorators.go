package batchmux

import (
	"context"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Mux is one shared batching tier: a per-service set of windowed batchers
// that decorate the core.Services seam. Build one per study and attach it
// with WrapServices.
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
		sem:        make(chan struct{}, cfg.MaxInFlight),
		perService: make(map[string]*metrics, 3),
	}
	for _, name := range []string{"hlr", "dnsdb", "avscan"} {
		m.perService[name] = newMetrics(reg, name)
	}
	return m
}

// WrapServices batches every bulk-capable method of a non-nil service:
// HLR lookups, pDNS resolutions, vendor-aggregate scans and Safe Browsing
// lookups (the last two in separate windows on one scoreboard). A
// batchable method whose service lacks the core.Bulk* seam gets a
// counting per-key fallthrough, so the gap is visible in telemetry; the
// other methods (WHOIS, CT, ASOf, transparency, shortener expansion) have
// no bulk form and pass through. The wrapped services offer no core.Bulk*
// seam themselves: the windows already batch everything below them.
func (m *Mux) WrapServices(s core.Services) core.Services {
	o := core.OpsOf(s)
	o.HLR = batched(o.HLR, m)
	o.PDNS = batched(o.PDNS, m)
	o.Scan = batched(o.Scan, m)
	o.GSB = batched(o.GSB, m)
	return o.Services()
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
	b := newBatcher(m.cfg.forService(op.Service), m.cfg.BatchTimeout, m.sem, met, op.Bulk)
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
