package faultinject

import (
	"context"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Injector decorates the core.Ops seam with per-service fault
// gates. Build one per chaos run; it is safe for concurrent use.
type Injector struct {
	gates map[string]*gate
}

// New builds an injector recording into reg (nil is allowed: counters
// become no-ops). Multi-method services (dnsdb, avscan) share one gate
// and its counters; the op's field keeps their methods' draws apart.
func New(cfg Config, reg *telemetry.Registry) *Injector {
	in := &Injector{gates: make(map[string]*gate, 6)}
	for _, name := range []string{"hlr", "whois", "ctlog", "dnsdb", "avscan", "shortener"} {
		in.gates[name] = newGate(name, cfg.forService(name), cfg.Seed, reg)
	}
	return in
}

// Wrap puts every present op whose service's fault mix is non-empty
// behind its service's gate. Absent ops stay absent and fault-free
// services pass through ungated, so a targeted single-service outage
// costs nothing on the healthy paths. Bulk-capable ops keep their Bulk
// form through the fault layer: the bulk form gates each key
// individually, so a fault degrades its own slot of a batch rather than
// hiding the batching tier's fast path entirely.
func (in *Injector) Wrap(o core.Ops) core.Ops {
	o.HLR = gated(o.HLR, in)
	o.Whois = gated(o.Whois, in)
	o.CT = gated(o.CT, in)
	o.PDNS = gated(o.PDNS, in)
	o.ASN = gated(o.ASN, in)
	o.Scan = gated(o.Scan, in)
	o.GSB = gated(o.GSB, in)
	o.Transparency = gated(o.Transparency, in)
	o.Expand = gated(o.Expand, in)
	return o
}

// gated runs op's service gate on each call's key before the call. An
// absent op, or one whose service has no faults configured, passes
// through as it is.
func gated[K, V any](op core.Op[K, V], in *Injector) core.Op[K, V] {
	g := in.gates[op.Service]
	if op.Call == nil || !g.f.enabled() {
		return op
	}
	call, bulk, field, key := op.Call, op.Bulk, op.Field, op.Key
	op.Call = func(ctx context.Context, k K) (V, error) {
		if err := g.before(ctx, field, key(k), true); err != nil {
			var zero V
			return zero, err
		}
		return call(ctx, k)
	}
	if bulk != nil {
		op.Bulk = func(ctx context.Context, ks []K) ([]V, []error) {
			return gateBatch(ctx, g, field, key, ks, bulk)
		}
	}
	return op
}

// gateBatch applies one gate decision per key: keys the gate rejects get
// that fault as their slot error (a hung key fails at once rather than
// stalling its batch-mates), the survivors go upstream as a smaller
// batch, and the answers demultiplex back into their original slots. A
// survivor the bulk answer has no slot for gets core.ErrMissingSlot.
func gateBatch[K, V any](ctx context.Context, g *gate, field string, key func(K) string, keys []K,
	bulk func(ctx context.Context, keys []K) ([]V, []error)) ([]V, []error) {
	vals := make([]V, len(keys))
	errs := make([]error, len(keys))
	pass := make([]K, 0, len(keys))
	slots := make([]int, 0, len(keys))
	for i, k := range keys {
		if err := g.before(ctx, field, key(k), false); err != nil {
			errs[i] = err
			continue
		}
		pass = append(pass, k)
		slots = append(slots, i)
	}
	if len(pass) == 0 {
		return vals, errs
	}
	pvals, perrs := bulk(ctx, pass)
	for j, i := range slots {
		vals[i], errs[i] = core.BulkSlot(pvals, perrs, j)
	}
	return vals, errs
}
