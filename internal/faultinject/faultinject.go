// Package faultinject turns the enrichment-service seam into a chaos
// harness. Real measurement runs die on exactly the failures a clean
// simulation never produces — timeouts, 5xx bursts, rate-limit storms,
// hung connections — so this package injects them deliberately:
// seed-driven gates over the core.Ops seam that fail, slow, or hang a
// configurable fraction of calls before they reach the real client.
//
// Determinism is the point. A gate holds no state: each call's fault is
// a pure function of (Config.Seed, service, field, lookup key), so every
// call for one key gets the same fault however calls interleave, however
// many shards split the records and whether a shard runs in this process
// or in a worker. A failing chaos run reproduces locally from the same
// seed, and records that share a failing key degrade together.
//
// Every injected fault increments "fault.<service>.injected" (plus a
// per-kind counter) in the study's telemetry registry, so a chaos run's
// blast radius is visible next to the client and breaker metrics.
package faultinject

import (
	"context"
	"fmt"
	"time"

	"github.com/smishkit/smishkit/internal/netutil"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// ErrInjected marks transport-style failures produced by this package;
// injected 429/5xx responses are plain *netutil.APIError values instead,
// indistinguishable from a genuinely degraded upstream (which is what the
// cache's serve-stale path and the breaker classifier must see).
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
	// connection a deadline budget exists to bound. Inside a bulk call a
	// hang fails only its own slot, at once, with
	// context.DeadlineExceeded: the error the per-key call returns once
	// its timeout fires.
	HangRate float64
	// SlowRate delays the call by Latency before letting it through.
	SlowRate float64
	// Latency is the injected delay for SlowRate calls (default 2ms).
	Latency time.Duration
}

// enabled reports whether any fault is configured.
func (f ServiceFaults) enabled() bool {
	return f.ErrorRate > 0 || f.Rate429 > 0 || f.Rate5xx > 0 || f.HangRate > 0 || f.SlowRate > 0
}

// Config seeds an Injector. Default applies to every service; PerService
// replaces it wholesale for the named service (keyed by the telemetry
// names: hlr, whois, ctlog, dnsdb, avscan, shortener).
type Config struct {
	// Seed keys every fault decision; the same seed and lookup key give
	// the same fault.
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
	actTransport
	act429
	act5xx
	actHang
	actSlow
)

// gate is one service's fault mix and per-kind counters. It holds no
// decision state: decide is a pure function of its arguments.
type gate struct {
	service string
	seed    int64
	f       ServiceFaults

	injected, transport, limited, server, hangs, slow *telemetry.Counter
}

func newGate(service string, f ServiceFaults, seed int64, reg *telemetry.Registry) *gate {
	if f.Latency == 0 {
		f.Latency = 2 * time.Millisecond
	}
	prefix := "fault." + service + "."
	return &gate{
		service:   service,
		seed:      seed,
		f:         f,
		injected:  reg.Counter(prefix + "injected"),
		transport: reg.Counter(prefix + "errors"),
		limited:   reg.Counter(prefix + "rate_limited"),
		server:    reg.Counter(prefix + "server_errors"),
		hangs:     reg.Counter(prefix + "hangs"),
		slow:      reg.Counter(prefix + "latency_spikes"),
	}
}

// draw maps (seed, service, field, key) to a uniform value in [0, 1):
// FNV-1a over the seed and the three strings, each string closed by a NUL
// so ("ab", "c") and ("a", "bc") differ, then murmur3's fmix64 finalizer
// so nearby keys land far apart.
func draw(seed int64, service, field, key string) float64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(seed>>(8*i)))) * prime
	}
	for _, s := range [...]string{service, field, key} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h *= prime // the NUL separator: h ^ 0 == h
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return float64(h>>11) / (1 << 53)
}

// decide walks the rate ladder with the key's draw: every call for one
// (field, key) pair gets the same action.
func (g *gate) decide(field, key string) action {
	d := draw(g.seed, g.service, field, key)
	for _, step := range [...]struct {
		rate float64
		act  action
	}{
		{g.f.ErrorRate, actTransport},
		{g.f.Rate429, act429},
		{g.f.Rate5xx, act5xx},
		{g.f.HangRate, actHang},
		{g.f.SlowRate, actSlow},
	} {
		if d < step.rate {
			return step.act
		}
		d -= step.rate
	}
	return actPass
}

// before runs the gate's decision for one call: it returns a non-nil
// error to inject, sleeps through an injected latency spike, or lets the
// call pass. A hang blocks until ctx is done when block is set, and
// otherwise fails at once with context.DeadlineExceeded (a bulk slot,
// whose batch-mates must not wait on it).
func (g *gate) before(ctx context.Context, field, key string, block bool) error {
	switch g.decide(field, key) {
	case actPass:
		return nil
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
		if !block {
			return context.DeadlineExceeded
		}
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
