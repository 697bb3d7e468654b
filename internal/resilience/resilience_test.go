package resilience

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/netutil"
	"github.com/smishkit/smishkit/internal/shortener"
	"github.com/smishkit/smishkit/internal/telemetry"
)

var errBoom = errors.New("boom")

// fakeClock is a manually advanced time source for breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(cfg BreakerConfig, reg *telemetry.Registry) (*Breaker, *fakeClock) {
	b := NewBreaker("test", cfg, reg)
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	b.SetClock(clk.now)
	return b, clk
}

// call runs one Allow/Record round and reports whether it was admitted.
func call(b *Breaker, err error) bool {
	if b.Allow() != nil {
		return false
	}
	b.Record(err)
	return true
}

// TestBreakerStateMachine walks the full closed -> open -> half-open
// cycle as a transition table.
func TestBreakerStateMachine(t *testing.T) {
	cfg := BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Second, HalfOpenProbes: 1, ProbeSuccesses: 2}

	type step struct {
		name      string
		advance   time.Duration
		err       error // call outcome (ignored when admitted=false expected)
		admitted  bool  // want Allow to admit the call
		wantState State // state after the step
	}
	steps := []step{
		{name: "fresh breaker is closed", err: nil, admitted: true, wantState: StateClosed},
		{name: "failure 1 stays closed", err: errBoom, admitted: true, wantState: StateClosed},
		{name: "failure 2 stays closed", err: errBoom, admitted: true, wantState: StateClosed},
		{name: "success resets the streak", err: nil, admitted: true, wantState: StateClosed},
		{name: "failure 1 again", err: errBoom, admitted: true, wantState: StateClosed},
		{name: "failure 2 again", err: errBoom, admitted: true, wantState: StateClosed},
		{name: "failure 3 trips open", err: errBoom, admitted: true, wantState: StateOpen},
		{name: "open short-circuits", admitted: false, wantState: StateOpen},
		{name: "still open just before timeout", advance: 999 * time.Millisecond, admitted: false, wantState: StateOpen},
		{name: "timeout admits a probe; probe fails -> reopen", advance: time.Millisecond, err: errBoom, admitted: true, wantState: StateOpen},
		{name: "reopened short-circuits again", admitted: false, wantState: StateOpen},
		{name: "probe success 1 stays half-open", advance: time.Second, err: nil, admitted: true, wantState: StateHalfOpen},
		{name: "probe success 2 closes", err: nil, admitted: true, wantState: StateClosed},
		{name: "closed again passes traffic", err: nil, admitted: true, wantState: StateClosed},
	}

	b, clk := newTestBreaker(cfg, nil)
	for i, s := range steps {
		clk.advance(s.advance)
		admitted := call(b, s.err)
		if admitted != s.admitted {
			t.Fatalf("step %d (%s): admitted = %v, want %v", i, s.name, admitted, s.admitted)
		}
		if got := b.State(); got != s.wantState {
			t.Fatalf("step %d (%s): state = %v, want %v", i, s.name, got, s.wantState)
		}
	}
}

// TestBreakerIgnoredOutcomesDontMoveState: caller cancellation must not
// count for or against the service.
func TestBreakerIgnoredOutcomesDontMoveState(t *testing.T) {
	b, _ := newTestBreaker(BreakerConfig{FailureThreshold: 2}, nil)
	for i := 0; i < 10; i++ {
		if !call(b, context.Canceled) {
			t.Fatal("cancelled call was not admitted")
		}
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 10 cancellations = %v, want closed", got)
	}
	// One real failure streak still trips at the threshold.
	call(b, errBoom)
	call(b, errBoom)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after 2 failures = %v, want open", got)
	}
}

// TestBreakerHalfOpenProbeBudget: after the open timeout, concurrent
// callers racing Allow must be admitted exactly HalfOpenProbes at a time.
// Run under -race; this is the probe-accounting contract.
func TestBreakerHalfOpenProbeBudget(t *testing.T) {
	const budget = 3
	b, clk := newTestBreaker(BreakerConfig{
		FailureThreshold: 1, OpenTimeout: time.Second, HalfOpenProbes: budget, ProbeSuccesses: 100,
	}, nil)
	call(b, errBoom) // trip
	clk.advance(time.Second)

	const goroutines = 32
	var admitted, rejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			err := b.Allow()
			mu.Lock()
			if err == nil {
				admitted++
			} else {
				rejected++
			}
			mu.Unlock()
			// Admitted probes stay in flight (no Record) so the budget is
			// the only thing limiting admissions.
		}()
	}
	close(start)
	wg.Wait()
	if admitted != budget {
		t.Errorf("admitted %d concurrent probes, want exactly %d", admitted, budget)
	}
	if rejected != goroutines-budget {
		t.Errorf("rejected %d, want %d", rejected, goroutines-budget)
	}
	// Finishing one probe successfully frees one probe slot.
	b.Record(nil)
	if err := b.Allow(); err != nil {
		t.Errorf("Allow after a completed probe = %v, want admission", err)
	}
}

// TestClassify pins the default failure taxonomy.
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want Outcome
	}{
		{"nil", nil, OutcomeSuccess},
		{"canceled", context.Canceled, OutcomeIgnore},
		{"wrapped canceled", errors.Join(errors.New("ctx"), context.Canceled), OutcomeIgnore},
		{"open breaker", ErrOpen, OutcomeIgnore},
		{"shortener not found", shortener.ErrNotFound, OutcomeSuccess},
		{"shortener taken down", shortener.ErrTakenDown, OutcomeSuccess},
		{"dnsdb no route", dnsdb.ErrNoRoute, OutcomeSuccess},
		{"http 404", &netutil.APIError{Status: 404}, OutcomeSuccess},
		{"http 429", &netutil.APIError{Status: 429}, OutcomeFailure},
		{"http 503", &netutil.APIError{Status: 503}, OutcomeFailure},
		{"deadline", context.DeadlineExceeded, OutcomeFailure},
		{"transport", errBoom, OutcomeFailure},
	} {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// failingHLR always returns a transport error.
type failingHLR struct{ calls int }

func (f *failingHLR) Lookup(context.Context, string) (hlr.Result, error) {
	f.calls++
	return hlr.Result{}, errBoom
}

// TestWrapServicesShortCircuits: a wrapped service trips its breaker and
// subsequent calls never reach the downstream; stats and telemetry agree.
func TestWrapServicesShortCircuits(t *testing.T) {
	reg := telemetry.NewRegistry()
	bs := New(Config{Breaker: BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Hour}}, reg)
	next := &failingHLR{}
	s := bs.WrapServices(core.Services{HLR: next})
	if s.Whois != nil || s.Shortener != nil {
		t.Fatal("nil services did not stay nil")
	}

	for i := 0; i < 10; i++ {
		_, err := s.HLR.Lookup(context.Background(), "+447700900123")
		if err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
		if i >= 3 && !errors.Is(err, ErrOpen) {
			t.Fatalf("call %d: err = %v, want ErrOpen after trip", i, err)
		}
	}
	if next.calls != 3 {
		t.Errorf("downstream saw %d calls, want 3 (rest short-circuited)", next.calls)
	}

	st := bs.Stats()
	h := st["hlr"]
	if h.State != "open" || h.Opens != 1 || h.Failures != 3 || h.ShortCircuits != 7 {
		t.Errorf("hlr stats = %+v, want open/1 open/3 failures/7 short-circuits", h)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["breaker.hlr.state"]; got != int64(StateOpen) {
		t.Errorf("breaker.hlr.state gauge = %d, want %d", got, StateOpen)
	}
	if got := snap.Counters["breaker.hlr.opens"]; got != 1 {
		t.Errorf("breaker.hlr.opens = %d, want 1", got)
	}

	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"resilience breakers", "hlr", "open", "dnsdb"} {
		if !strings.Contains(out, want) {
			t.Errorf("Write output missing %q:\n%s", want, out)
		}
	}
}
