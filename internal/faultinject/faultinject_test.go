package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/netutil"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// fakeHLR is a healthy downstream that counts how many calls get through.
type fakeHLR struct{ calls atomic.Int64 }

func (f *fakeHLR) Lookup(context.Context, string) (hlr.Result, error) {
	f.calls.Add(1)
	return hlr.Result{Known: true}, nil
}

// bulkHLR is fakeHLR with a bulk form that records the keys it is sent.
type bulkHLR struct {
	fakeHLR
	sent []string
}

func (f *bulkHLR) LookupBatch(_ context.Context, msisdns []string) ([]hlr.Result, []error) {
	f.sent = append(f.sent, msisdns...)
	vals := make([]hlr.Result, len(msisdns))
	for i := range vals {
		vals[i] = hlr.Result{Known: true}
	}
	return vals, make([]error, len(msisdns))
}

func wrapHLR(cfg Config, reg *telemetry.Registry, next core.HLRLookuper) core.HLRLookuper {
	return New(cfg, reg).Wrap(core.OpsOf(core.Services{HLR: next})).Services().HLR
}

// msisdns returns n distinct phone-number keys.
func msisdns(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("+4477009%05d", i)
	}
	return keys
}

// outcome is one call's result as a comparable string ("" for success).
func outcome(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDecisionsIgnoreCallOrder is the reproducibility contract: a key's
// fault depends on the seed and the key alone, not on which calls came
// before it or on which goroutine makes it. The same keys, shuffled
// across 8 goroutines and each called twice, get the decisions a
// sequential pass got; another seed decides differently.
func TestDecisionsIgnoreCallOrder(t *testing.T) {
	cfg := Config{Seed: 42, Default: ServiceFaults{ErrorRate: 0.2, Rate429: 0.1, Rate5xx: 0.2}}
	keys := msisdns(1000)
	want := make(map[string]string, len(keys))
	svc := wrapHLR(cfg, nil, &fakeHLR{})
	for _, k := range keys {
		_, err := svc.Lookup(context.Background(), k)
		want[k] = outcome(err)
	}

	shuffled := slices.Clone(keys)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	svc = wrapHLR(cfg, nil, &fakeHLR{})
	const workers = 8
	got := make([][]string, workers) // per goroutine: key, outcome pairs
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < 2*len(shuffled); i += workers {
				k := shuffled[i%len(shuffled)]
				_, err := svc.Lookup(context.Background(), k)
				got[w] = append(got[w], k, outcome(err))
			}
		}()
	}
	wg.Wait()
	for _, pairs := range got {
		for i := 0; i < len(pairs); i += 2 {
			if k, o := pairs[i], pairs[i+1]; o != want[k] {
				t.Fatalf("key %s: %q concurrently, %q sequentially", k, o, want[k])
			}
		}
	}

	cfg.Seed = 43
	other := wrapHLR(cfg, nil, &fakeHLR{})
	for _, k := range keys {
		if _, err := other.Lookup(context.Background(), k); outcome(err) != want[k] {
			return
		}
	}
	t.Error("seed 43 reproduced seed 42's decisions exactly")
}

// TestInjectionRateAndTelemetry drives 3,000 distinct keys through a 30%
// error mix to pin the realized rate near the configured one, and checks
// the fault.<svc>.* counters account for every injection.
func TestInjectionRateAndTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	next := &fakeHLR{}
	svc := wrapHLR(Config{Seed: 7, Default: ServiceFaults{ErrorRate: 0.2, Rate5xx: 0.1}}, reg, next)

	keys := msisdns(3000)
	failed := 0
	for _, k := range keys {
		if _, err := svc.Lookup(context.Background(), k); err != nil {
			failed++
		}
	}
	rate := float64(failed) / float64(len(keys))
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("realized failure rate = %.3f, want ~0.30", rate)
	}
	if got := next.calls.Load(); got != int64(len(keys)-failed) {
		t.Errorf("downstream saw %d calls, want %d (failed calls must not reach it)", got, len(keys)-failed)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fault.hlr.injected"]; got != int64(failed) {
		t.Errorf("fault.hlr.injected = %d, want %d", got, failed)
	}
	if snap.Counters["fault.hlr.errors"]+snap.Counters["fault.hlr.server_errors"] != int64(failed) {
		t.Errorf("per-kind counters don't sum to injected: %v", snap.Counters)
	}
}

// TestBulkHangFailsOnlyItsSlot: inside a bulk call a hung key fails at
// once with context.DeadlineExceeded, even under a context that never
// ends, while its batch-mates go upstream and resolve.
func TestBulkHangFailsOnlyItsSlot(t *testing.T) {
	in := New(Config{Seed: 3, Default: ServiceFaults{HangRate: 0.5}}, nil)
	next := &bulkHLR{}
	op := in.Wrap(core.OpsOf(core.Services{HLR: next})).HLR
	keys := msisdns(20)

	done := make(chan []error)
	go func() {
		_, errs := op.Bulk(context.Background(), keys)
		done <- errs
	}()
	var errs []error
	select {
	case errs = <-done:
	case <-time.After(time.Second):
		t.Fatal("a hung slot blocked its bulk call")
	}
	var hung, passed []string
	for i, k := range keys {
		if in.gates["hlr"].decide("hlr", k) != actHang {
			passed = append(passed, k)
			if errs[i] != nil {
				t.Errorf("healthy key %s: err = %v", k, errs[i])
			}
			continue
		}
		hung = append(hung, k)
		if !errors.Is(errs[i], context.DeadlineExceeded) {
			t.Errorf("hung key %s: err = %v, want DeadlineExceeded", k, errs[i])
		}
	}
	if len(hung) == 0 || len(passed) == 0 {
		t.Fatalf("%d hung and %d healthy keys; the test needs both", len(hung), len(passed))
	}
	if !slices.Equal(next.sent, passed) {
		t.Errorf("upstream was sent %v, want the healthy keys %v", next.sent, passed)
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
	if n := next.calls.Load(); n != 0 {
		t.Errorf("hung call reached the downstream (%d calls)", n)
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
	if n := next.calls.Load(); n != 1 {
		t.Errorf("downstream calls = %d, want 1", n)
	}
}

// TestWrapPreservesNilAndHealthy: absent ops stay absent (stage
// skipping) and fault-free services pass through ungated.
func TestWrapPreservesNilAndHealthy(t *testing.T) {
	next := &fakeHLR{}
	reg := telemetry.NewRegistry()
	in := New(Config{Seed: 1, PerService: map[string]ServiceFaults{"whois": {ErrorRate: 1}}}, reg)
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
	if n := next.calls.Load(); n != 10 {
		t.Errorf("fault-free HLR service: %d downstream calls, want 10", n)
	}
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "fault.hlr.") && v != 0 {
			t.Errorf("fault-free HLR service was gated: %s = %d", name, v)
		}
	}
}
