// Package resilience keeps the measurement pipeline alive through
// enrichment-source outages: per-service circuit breakers over the
// interfaces in internal/core, plus the configuration for the pipeline's
// per-record deadline budgets and run-level failure-rate abort.
//
// A breaker is a three-state machine per service:
//
//   - closed: calls pass through; FailureThreshold consecutive failures
//     trip it open.
//   - open: calls short-circuit with ErrOpen (no network, no latency)
//     until OpenTimeout has elapsed.
//   - half-open: up to HalfOpenProbes concurrent calls are admitted as
//     probes; ProbeSuccesses consecutive probe successes close the
//     breaker, any probe failure re-opens it.
//
// Failure classification matters: value-level negatives (shortener
// takedowns, WHOIS not-found, unrouted IPs) and caller cancellation are
// not service failures and must never trip a breaker. See Classify.
//
// Breakers compose OUTSIDE the enrichment cache (pipeline -> breaker ->
// cache -> client): cache hits cost the breaker nothing, and an upstream
// 5xx reaches the cache first so its serve-stale degraded mode gets a
// chance before the failure is counted.
//
// State transitions surface as a "breaker.<service>.state" gauge
// (0 closed, 1 half-open, 2 open) plus opens / short_circuits / probes /
// failures / successes counters.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/netutil"
	"github.com/smishkit/smishkit/internal/shortener"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// ErrOpen is returned for calls short-circuited by an open breaker. The
// pipeline degrades the record's field on it like any other service
// failure — just without paying for a doomed network call. It wraps
// core.ErrShortCircuited so the pipeline's run-level abort accounting can
// exclude shed calls (each one echoes a failure the breaker already
// counted when it tripped).
var ErrOpen = fmt.Errorf("resilience: circuit open: %w", core.ErrShortCircuited)

// State is a breaker's position in the closed/half-open/open machine.
type State int

// Breaker states, in gauge order.
const (
	StateClosed State = iota
	StateHalfOpen
	StateOpen
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half-open"
	case StateOpen:
		return "open"
	}
	return "unknown"
}

// Outcome is a call's health verdict for breaker accounting.
type Outcome int

// Call outcomes.
const (
	// OutcomeSuccess: the service answered (including authoritative
	// negatives like not-found).
	OutcomeSuccess Outcome = iota
	// OutcomeFailure: the service is unhealthy (transport error, timeout,
	// 429, 5xx, hang).
	OutcomeFailure
	// OutcomeIgnore: the caller went away; says nothing about the service.
	OutcomeIgnore
)

// Classify is the breakers' failure classifier. Authoritative negative
// answers and non-429 4xx responses are successes (the service is up and
// answering); caller cancellation is ignored; everything else — transport
// errors, deadline expiry, 429 storms, 5xx — is a failure.
func Classify(err error) Outcome {
	switch {
	case err == nil:
		return OutcomeSuccess
	case errors.Is(err, context.Canceled):
		return OutcomeIgnore
	case errors.Is(err, ErrOpen):
		return OutcomeIgnore
	case errors.Is(err, shortener.ErrNotFound),
		errors.Is(err, shortener.ErrTakenDown),
		errors.Is(err, dnsdb.ErrNoRoute):
		return OutcomeSuccess
	}
	var ae *netutil.APIError
	if errors.As(err, &ae) {
		if ae.Status == 429 || ae.Status >= 500 {
			return OutcomeFailure
		}
		return OutcomeSuccess
	}
	return OutcomeFailure
}

// BreakerConfig tunes one breaker. The zero value selects the documented
// defaults.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the breaker
	// open (default 5).
	FailureThreshold int
	// OpenTimeout is how long an open breaker short-circuits before
	// admitting half-open probes (default 500ms).
	OpenTimeout time.Duration
	// HalfOpenProbes caps concurrent in-flight probes while half-open
	// (default 1).
	HalfOpenProbes int
	// ProbeSuccesses is how many consecutive probe successes close the
	// breaker (default 2).
	ProbeSuccesses int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 5
	}
	if c.OpenTimeout == 0 {
		c.OpenTimeout = 500 * time.Millisecond
	}
	if c.HalfOpenProbes == 0 {
		c.HalfOpenProbes = 1
	}
	if c.ProbeSuccesses == 0 {
		c.ProbeSuccesses = 2
	}
	return c
}

// Breaker is one service's circuit breaker. Safe for concurrent use.
type Breaker struct {
	name string
	cfg  BreakerConfig
	now  func() time.Time

	mu          sync.Mutex
	state       State
	consecFails int
	openedAt    time.Time
	probes      int // in-flight half-open probes
	probeOK     int // consecutive probe successes

	stateG                               *telemetry.Gauge
	opens, shorts, probesC, fails, succs *telemetry.Counter
}

// NewBreaker builds a breaker recording into reg (nil allowed) on the
// wall clock. Record sorts call outcomes with Classify.
func NewBreaker(name string, cfg BreakerConfig, reg *telemetry.Registry) *Breaker {
	cfg = cfg.withDefaults()
	prefix := "breaker." + name + "."
	b := &Breaker{
		name:    name,
		cfg:     cfg,
		now:     time.Now,
		stateG:  reg.Gauge(prefix + "state"),
		opens:   reg.Counter(prefix + "opens"),
		shorts:  reg.Counter(prefix + "short_circuits"),
		probesC: reg.Counter(prefix + "probes"),
		fails:   reg.Counter(prefix + "failures"),
		succs:   reg.Counter(prefix + "successes"),
	}
	b.stateG.Set(int64(StateClosed))
	return b
}

// SetClock overrides the time source (tests).
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
}

// State reports the current state, transitioning open -> half-open if the
// open timeout has elapsed (so observers see what a caller would get).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == StateOpen && b.now().Sub(b.openedAt) >= b.cfg.OpenTimeout {
		return StateHalfOpen
	}
	return b.state
}

// Allow reserves the right to make one call. A nil return means go ahead
// — and obligates exactly one matching Record call with the call's error.
// ErrOpen means the call is short-circuited; do not call Record for it.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return nil
	case StateOpen:
		if b.now().Sub(b.openedAt) < b.cfg.OpenTimeout {
			b.shorts.Inc()
			return ErrOpen
		}
		// Cooled off: admit probes.
		b.setState(StateHalfOpen)
		b.probes, b.probeOK = 0, 0
		fallthrough
	default: // StateHalfOpen
		if b.probes >= b.cfg.HalfOpenProbes {
			b.shorts.Inc()
			return ErrOpen
		}
		b.probes++
		b.probesC.Inc()
		return nil
	}
}

// Record reports the outcome of a call admitted by Allow.
func (b *Breaker) Record(err error) {
	out := Classify(err)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == StateHalfOpen && b.probes > 0 {
		b.probes--
	}
	switch out {
	case OutcomeIgnore:
		return
	case OutcomeSuccess:
		b.succs.Inc()
		switch b.state {
		case StateClosed:
			b.consecFails = 0
		case StateHalfOpen:
			b.probeOK++
			if b.probeOK >= b.cfg.ProbeSuccesses {
				b.setState(StateClosed)
				b.consecFails, b.probes, b.probeOK = 0, 0, 0
			}
		}
		// StateOpen: a stale call finishing after a re-open; no transition.
	case OutcomeFailure:
		b.fails.Inc()
		switch b.state {
		case StateClosed:
			b.consecFails++
			if b.consecFails >= b.cfg.FailureThreshold {
				b.trip()
			}
		case StateHalfOpen:
			b.trip()
		}
		// StateOpen: already open; the clock keeps its original trip time.
	}
}

// trip opens the breaker. Callers hold b.mu.
func (b *Breaker) trip() {
	b.setState(StateOpen)
	b.openedAt = b.now()
	b.opens.Inc()
	b.consecFails, b.probes, b.probeOK = 0, 0, 0
}

// setState transitions and mirrors the state into the gauge. Callers
// hold b.mu.
func (b *Breaker) setState(s State) {
	b.state = s
	b.stateG.Set(int64(s))
}
