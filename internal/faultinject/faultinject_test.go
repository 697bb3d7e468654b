package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/netutil"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// fakeHLR is a healthy downstream that counts how many calls get through.
type fakeHLR struct{ calls int }

func (f *fakeHLR) Lookup(context.Context, string) (hlr.Result, error) {
	f.calls++
	return hlr.Result{Known: true}, nil
}

func wrapHLR(cfg Config, reg *telemetry.Registry, next core.HLRLookuper) core.HLRLookuper {
	return New(cfg, reg).Wrap(core.OpsOf(core.Services{HLR: next})).Services().HLR
}

// TestDeterministicSequence is the reproducibility contract: two
// injectors with the same seed and config produce the same pass/fail
// decision at every call position.
func TestDeterministicSequence(t *testing.T) {
	cfg := Config{Seed: 42, Default: ServiceFaults{ErrorRate: 0.2, Rate5xx: 0.2}}
	run := func() []bool {
		svc := wrapHLR(cfg, nil, &fakeHLR{})
		outcomes := make([]bool, 500)
		for i := range outcomes {
			_, err := svc.Lookup(context.Background(), "+447700900123")
			outcomes[i] = err == nil
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, a[i], b[i])
		}
	}
	// A different seed must produce a different sequence somewhere.
	cfg.Seed = 43
	c := wrapHLR(cfg, nil, &fakeHLR{})
	diverged := false
	for i := range a {
		_, err := c.Lookup(context.Background(), "+447700900123")
		if (err == nil) != a[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("seed 43 reproduced seed 42's decision sequence exactly")
	}
}

// TestInjectionRateAndTelemetry drives enough calls through a 30% error
// mix to pin the realized rate near the configured one, and checks the
// fault.<svc>.* counters account for every injection.
func TestInjectionRateAndTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	next := &fakeHLR{}
	svc := wrapHLR(Config{Seed: 7, Default: ServiceFaults{ErrorRate: 0.2, Rate5xx: 0.1}}, reg, next)

	const calls = 3000
	failed := 0
	for i := 0; i < calls; i++ {
		if _, err := svc.Lookup(context.Background(), "+447700900123"); err != nil {
			failed++
		}
	}
	rate := float64(failed) / calls
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("realized failure rate = %.3f, want ~0.30", rate)
	}
	if next.calls != calls-failed {
		t.Errorf("downstream saw %d calls, want %d (failed calls must not reach it)",
			next.calls, calls-failed)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fault.hlr.injected"]; got != int64(failed) {
		t.Errorf("fault.hlr.injected = %d, want %d", got, failed)
	}
	if snap.Counters["fault.hlr.errors"]+snap.Counters["fault.hlr.server_errors"] != int64(failed) {
		t.Errorf("per-kind counters don't sum to injected: %v", snap.Counters)
	}
}

// TestFlappingWindowsAreDeterministic checks the call-counter windows: of
// every 10 calls the first 4 fail, exactly, regardless of seed.
func TestFlappingWindowsAreDeterministic(t *testing.T) {
	svc := wrapHLR(Config{Seed: 1, Default: ServiceFaults{FlapPeriod: 10, FlapDown: 4}}, nil, &fakeHLR{})
	for i := 0; i < 100; i++ {
		_, err := svc.Lookup(context.Background(), "+447700900123")
		wantDown := i%10 < 4
		if (err != nil) != wantDown {
			t.Fatalf("call %d: err=%v, want down=%v", i, err, wantDown)
		}
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("flap failure not marked ErrInjected: %v", err)
		}
	}
}

// TestInjectedStatusCodes verifies 429/5xx surface as netutil.APIError —
// the shape the cache's serve-stale path and the breaker classifier key on.
func TestInjectedStatusCodes(t *testing.T) {
	for _, tc := range []struct {
		faults ServiceFaults
		status int
	}{
		{ServiceFaults{Rate429: 1}, 429},
		{ServiceFaults{Rate5xx: 1}, 503},
	} {
		svc := wrapHLR(Config{Seed: 1, Default: tc.faults}, nil, &fakeHLR{})
		_, err := svc.Lookup(context.Background(), "+447700900123")
		var ae *netutil.APIError
		if !errors.As(err, &ae) || ae.Status != tc.status {
			t.Errorf("faults %+v: err = %v, want APIError status %d", tc.faults, err, tc.status)
		}
	}
}

// TestHangRespectsContext: a 100% hang rate must block until the context
// dies and return its error, never reaching the downstream.
func TestHangRespectsContext(t *testing.T) {
	next := &fakeHLR{}
	svc := wrapHLR(Config{Seed: 1, Default: ServiceFaults{HangRate: 1}}, nil, next)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := svc.Lookup(ctx, "+447700900123")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("hang returned %v, want DeadlineExceeded", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("hang returned before the context deadline")
	}
	if next.calls != 0 {
		t.Errorf("hung call reached the downstream (%d calls)", next.calls)
	}
}

// TestLatencyInjection: SlowRate delays but still completes the call.
func TestLatencyInjection(t *testing.T) {
	next := &fakeHLR{}
	svc := wrapHLR(Config{Seed: 1, Default: ServiceFaults{SlowRate: 1, Latency: 10 * time.Millisecond}}, nil, next)
	start := time.Now()
	if _, err := svc.Lookup(context.Background(), "+447700900123"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("slow call took %v, want >= 10ms", d)
	}
	if next.calls != 1 {
		t.Errorf("downstream calls = %d, want 1", next.calls)
	}
}

// TestWrapPreservesNilAndHealthy: absent ops stay absent (stage
// skipping) and fault-free services pass through ungated.
func TestWrapPreservesNilAndHealthy(t *testing.T) {
	next := &fakeHLR{}
	in := New(Config{Seed: 1, PerService: map[string]ServiceFaults{"whois": {ErrorRate: 1}}}, nil)
	o := in.Wrap(core.OpsOf(core.Services{HLR: next}))
	if o.Whois.Call != nil || o.CT.Call != nil || o.PDNS.Call != nil || o.ASN.Call != nil ||
		o.Scan.Call != nil || o.GSB.Call != nil || o.Transparency.Call != nil || o.Expand.Call != nil {
		t.Error("absent ops did not stay absent")
	}
	for i := 0; i < 10; i++ {
		if _, err := o.HLR.Call(context.Background(), "+447700900123"); err != nil {
			t.Fatal(err)
		}
	}
	if next.calls != 10 || in.gates["hlr"].calls != 0 {
		t.Errorf("fault-free HLR service was gated: %d downstream calls, %d gate decisions, want 10 and 0",
			next.calls, in.gates["hlr"].calls)
	}
}
