package shard

import (
	"context"
	"strconv"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/telemetry"
)

// Shard lifecycle: the prober maintains each shard's up/down state so the
// router can steer keys away from a dead shard before (probe-driven) or
// during (dispatch-failure-driven) a round, and the supervisor can tell a
// restarted worker has come back. State changes are cheap and local — the
// expensive part, re-dispatch, only happens for the routed subset of a
// shard that actually failed.

// HealthChecker is implemented by enrichers that can be probed for
// liveness (RemoteEnricher asks the worker's /healthz; the local Stack is
// trivially healthy). Enrichers without it are treated as always up.
type HealthChecker interface {
	Healthy(ctx context.Context) error
}

// ProbeConfig tunes a Prober. The zero value selects every documented
// default.
type ProbeConfig struct {
	// Interval is the probe cadence (default 2s).
	Interval time.Duration
}

// probeTimeout bounds one probe request.
const probeTimeout = time.Second

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	return c
}

// Prober tracks per-shard up/down state: a background Run loop probes
// every target each Interval, and the Group feeds it dispatch outcomes
// (MarkDown on an enrich failure, MarkUp when the supervisor swaps in a
// fresh worker). One failed probe marks a shard down and one success
// marks it back up. State lands in telemetry as "shard.<i>.health" gauges
// (1 up, 0 down) and "shard.<i>.flaps" transition counters.
type Prober struct {
	cfg    ProbeConfig
	ticks  *telemetry.Counter
	health []*telemetry.Gauge
	flaps  []*telemetry.Counter

	mu     sync.Mutex
	source func() []Enricher
	up     []bool
}

// NewProber builds a prober for n shards, all initially up. Wire its
// probe targets with SetSource (Group.AttachProber does) before Run.
func NewProber(n int, cfg ProbeConfig, reg *telemetry.Registry) *Prober {
	p := &Prober{
		cfg:    cfg.withDefaults(),
		ticks:  reg.Counter("shard.probe.ticks"),
		health: make([]*telemetry.Gauge, n),
		flaps:  make([]*telemetry.Counter, n),
		up:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		p.health[i] = reg.Gauge("shard." + strconv.Itoa(i) + ".health")
		p.flaps[i] = reg.Counter("shard." + strconv.Itoa(i) + ".flaps")
		p.up[i] = true
		p.health[i].Set(1)
	}
	return p
}

// SetSource installs the function the prober pulls its current targets
// from — a pull seam rather than a stored slice, so enricher swaps
// (SetEnrichers, supervisor restarts) are picked up without re-wiring.
func (p *Prober) SetSource(f func() []Enricher) {
	p.mu.Lock()
	p.source = f
	p.mu.Unlock()
}

// Run probes every target each Interval until ctx is cancelled.
func (p *Prober) Run(ctx context.Context) {
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce probes every target concurrently, each bounded by
// probeTimeout, and folds the results into the up/down state.
func (p *Prober) ProbeOnce(ctx context.Context) {
	p.mu.Lock()
	source := p.source
	p.mu.Unlock()
	if source == nil {
		return
	}
	targets := source()
	p.ticks.Inc()
	var wg sync.WaitGroup
	for i, t := range targets {
		if i >= len(p.up) {
			break
		}
		hc, ok := t.(HealthChecker)
		if !ok {
			// Not probeable (an in-process Stack without the interface):
			// always up.
			p.set(i, true)
			continue
		}
		wg.Add(1)
		go func(i int, hc HealthChecker) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			p.set(i, hc.Healthy(pctx) == nil)
		}(i, hc)
	}
	wg.Wait()
}

// set transitions shard i to the given state, counting the flap. Out of
// range indexes are ignored.
func (p *Prober) set(i int, up bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.up) || p.up[i] == up {
		return
	}
	p.up[i] = up
	p.flaps[i].Inc()
	if up {
		p.health[i].Set(1)
	} else {
		p.health[i].Set(0)
	}
}

// MarkDown forces shard i down immediately — the Group calls it when a
// dispatch fails, so routing steers around the shard without waiting for
// the next probe tick.
func (p *Prober) MarkDown(i int) { p.set(i, false) }

// MarkUp forces shard i up immediately — the supervisor calls it after a
// restarted worker passes its connect-time health check.
func (p *Prober) MarkUp(i int) { p.set(i, true) }

// Up reports shard i's current state.
func (p *Prober) Up(i int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return i >= 0 && i < len(p.up) && p.up[i]
}

// AliveMask returns a copy of the per-shard up/down state.
func (p *Prober) AliveMask() []bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]bool, len(p.up))
	copy(out, p.up)
	return out
}

// Flaps returns how many up<->down transitions shard i has made: the
// "shard.<i>.flaps" counter's value.
func (p *Prober) Flaps(i int) int64 {
	if i < 0 || i >= len(p.flaps) {
		return 0
	}
	return p.flaps[i].Value()
}
