// Package faultinject turns the enrichment-service seam into a chaos
// harness. Real measurement runs die on exactly the failures a clean
// simulation never produces — timeouts, 5xx bursts, rate-limit storms,
// hung connections, services flapping up and down — so this package
// injects them deliberately: deterministic, seed-driven gates over
// the per-service interfaces in internal/core that fail, slow, or hang a
// configurable fraction of calls before they reach the real client.
//
// Determinism is the point. Every gate draws from its own seeded source
// (derived from Config.Seed and the service name), so a failing chaos run
// reproduces locally from the same seed; flapping windows are driven by
// the gate's call counter, not the wall clock, so a given call sequence
// always hits the same windows.
//
// Every injected fault increments "fault.<service>.injected" (plus a
// per-kind counter) in the study's telemetry registry, so a chaos run's
// blast radius is visible next to the client and breaker metrics.
package faultinject

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/netutil"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// ErrInjected marks transport-style and flap failures produced by this
// package; injected 429/5xx responses are plain *netutil.APIError values
// instead, indistinguishable from a genuinely degraded upstream (which is
// what the cache's serve-stale path and the breaker classifier must see).
var ErrInjected = fmt.Errorf("faultinject: injected fault")

// ServiceFaults configures the fault mix for one service. Rates are
// probabilities in [0, 1] evaluated per call from one deterministic draw;
// they are tried in order (error, 429, 5xx, hang, latency), so their sum
// should stay at or below 1.
type ServiceFaults struct {
	// ErrorRate injects transport-level failures (connection reset).
	ErrorRate float64
	// Rate429 injects HTTP 429 rate-limit responses.
	Rate429 float64
	// Rate5xx injects HTTP 503 server errors.
	Rate5xx float64
	// HangRate blocks the call until its context is cancelled — the hung
	// connection a deadline budget exists to bound.
	HangRate float64
	// SlowRate delays the call by Latency before letting it through.
	SlowRate float64
	// Latency is the injected delay for SlowRate calls (default 2ms).
	Latency time.Duration
	// FlapPeriod/FlapDown model a flapping service deterministically: of
	// every FlapPeriod consecutive calls, the first FlapDown fail outright
	// (before any rate is drawn). Zero disables flapping.
	FlapPeriod int
	FlapDown   int
}

// enabled reports whether any fault is configured.
func (f ServiceFaults) enabled() bool {
	return f.ErrorRate > 0 || f.Rate429 > 0 || f.Rate5xx > 0 ||
		f.HangRate > 0 || f.SlowRate > 0 || (f.FlapPeriod > 0 && f.FlapDown > 0)
}

// Config seeds an Injector. Default applies to every service; PerService
// replaces it wholesale for the named service (keyed by the telemetry
// names: hlr, whois, ctlog, dnsdb, avscan, shortener).
type Config struct {
	// Seed drives every per-service random source; the same seed and call
	// sequence reproduce the same faults.
	Seed    int64
	Default ServiceFaults
	// PerService overrides Default for one service (full replacement, not
	// a field merge).
	PerService map[string]ServiceFaults
}

func (c Config) forService(name string) ServiceFaults {
	if f, ok := c.PerService[name]; ok {
		return f
	}
	return c.Default
}

// action is one gate decision.
type action int

const (
	actPass action = iota
	actFlap
	actTransport
	act429
	act5xx
	actHang
	actSlow
)

// gate is one service's fault source: a seeded RNG, a call counter for
// flap windows, and the per-kind counters.
type gate struct {
	service string
	f       ServiceFaults

	mu    sync.Mutex
	rng   *rand.Rand
	calls int

	injected, transport, limited, server, hangs, slow, flapped *telemetry.Counter
}

func newGate(service string, f ServiceFaults, seed int64, reg *telemetry.Registry) *gate {
	if f.Latency == 0 {
		f.Latency = 2 * time.Millisecond
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(service))
	prefix := "fault." + service + "."
	return &gate{
		service:   service,
		f:         f,
		rng:       rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
		injected:  reg.Counter(prefix + "injected"),
		transport: reg.Counter(prefix + "errors"),
		limited:   reg.Counter(prefix + "rate_limited"),
		server:    reg.Counter(prefix + "server_errors"),
		hangs:     reg.Counter(prefix + "hangs"),
		slow:      reg.Counter(prefix + "latency_spikes"),
		flapped:   reg.Counter(prefix + "flapped"),
	}
}

// decide consumes exactly one counter tick and (outside flap windows) one
// random draw, keeping the decision sequence deterministic per service.
func (g *gate) decide() action {
	g.mu.Lock()
	defer g.mu.Unlock()
	seq := g.calls
	g.calls++
	if g.f.FlapPeriod > 0 && g.f.FlapDown > 0 && seq%g.f.FlapPeriod < g.f.FlapDown {
		return actFlap
	}
	draw := g.rng.Float64()
	for _, step := range []struct {
		rate float64
		act  action
	}{
		{g.f.ErrorRate, actTransport},
		{g.f.Rate429, act429},
		{g.f.Rate5xx, act5xx},
		{g.f.HangRate, actHang},
		{g.f.SlowRate, actSlow},
	} {
		if draw < step.rate {
			return step.act
		}
		draw -= step.rate
	}
	return actPass
}

// before runs the gate's decision for one call: it returns a non-nil
// error to inject, sleeps through an injected latency spike, or lets the
// call pass. Hangs block until ctx is cancelled.
func (g *gate) before(ctx context.Context) error {
	switch g.decide() {
	case actPass:
		return nil
	case actFlap:
		g.injected.Inc()
		g.flapped.Inc()
		return fmt.Errorf("faultinject: %s flapping (window down): %w", g.service, ErrInjected)
	case actTransport:
		g.injected.Inc()
		g.transport.Inc()
		return fmt.Errorf("faultinject: %s: connection reset by peer: %w", g.service, ErrInjected)
	case act429:
		g.injected.Inc()
		g.limited.Inc()
		return &netutil.APIError{Status: 429, Body: "faultinject: rate limit storm"}
	case act5xx:
		g.injected.Inc()
		g.server.Inc()
		return &netutil.APIError{Status: 503, Body: "faultinject: upstream degraded"}
	case actHang:
		g.injected.Inc()
		g.hangs.Inc()
		<-ctx.Done()
		return ctx.Err()
	case actSlow:
		g.injected.Inc()
		g.slow.Inc()
		t := time.NewTimer(g.f.Latency)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	return nil
}
