package enrichcache

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/netutil"
	"github.com/smishkit/smishkit/internal/shortener"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// fakeClock is a mutable time source for TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func testCache(t *testing.T, cfg Config) (*lookupCache[int], *telemetry.Registry) {
	t.Helper()
	if cfg.TTL == 0 {
		cfg.TTL = time.Minute
	}
	if cfg.NegativeTTL == 0 {
		cfg.NegativeTTL = 10 * time.Second
	}
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = 128
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	reg := telemetry.NewRegistry()
	return newLookupCache[int](cfg, newMetrics(reg, "test")), reg
}

// TestSingleflightCoalesces floods one key with concurrent workers while
// the upstream call is held open: exactly one upstream call happens, and
// every waiter gets its result. Run under -race in CI.
func TestSingleflightCoalesces(t *testing.T) {
	c, reg := testCache(t, Config{})
	var calls atomic.Int32
	release := make(chan struct{})
	fn := func(ctx context.Context) (int, error) {
		calls.Add(1)
		<-release
		return 42, nil
	}

	const workers = 32
	var wg sync.WaitGroup
	results := make([]int, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.get(context.Background(), "k", fn)
		}(i)
	}

	// Wait until every follower is parked on the in-flight call, then
	// release the leader.
	coalesced := reg.Counter("cache.test.coalesced")
	deadline := time.After(10 * time.Second)
	for coalesced.Value() < workers-1 {
		select {
		case <-deadline:
			t.Fatalf("coalesced = %d, want %d", coalesced.Value(), workers-1)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("upstream calls = %d, want 1", n)
	}
	for i := range results {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("worker %d got (%d, %v)", i, results[i], errs[i])
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["cache.test.misses"] != 1 {
		t.Errorf("misses = %d, want 1", snap.Counters["cache.test.misses"])
	}
}

// TestCoalescedWaiterHonorsContext: a follower whose context dies while
// waiting gets the context error, not a hang.
func TestCoalescedWaiterHonorsContext(t *testing.T) {
	c, _ := testCache(t, Config{})
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _ = c.get(context.Background(), "k", func(ctx context.Context) (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.get(ctx, "k", func(ctx context.Context) (int, error) { return 2, nil })
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter hung")
	}
	close(release)
}

func TestTTLExpiry(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1700000000, 0)}
	c, reg := testCache(t, Config{TTL: time.Minute, Clock: clk.Now})
	var calls int
	fn := func(ctx context.Context) (int, error) { calls++; return calls, nil }

	for i := 0; i < 3; i++ {
		if v, _ := c.get(context.Background(), "k", fn); v != 1 {
			t.Fatalf("fresh get = %d, want 1", v)
		}
	}
	clk.Advance(time.Minute + time.Second)
	if v, _ := c.get(context.Background(), "k", fn); v != 2 {
		t.Errorf("post-expiry get = %d, want 2 (new upstream call)", v)
	}
	snap := reg.Snapshot()
	if snap.Counters["cache.test.hits"] != 2 || snap.Counters["cache.test.misses"] != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2",
			snap.Counters["cache.test.hits"], snap.Counters["cache.test.misses"])
	}
}

// TestLRUEvictionOrder: with room for two entries, touching the older one
// makes the other the eviction victim.
func TestLRUEvictionOrder(t *testing.T) {
	c, reg := testCache(t, Config{MaxEntries: 2})
	calls := map[string]int{}
	fnFor := func(key string) func(context.Context) (int, error) {
		return func(ctx context.Context) (int, error) {
			calls[key]++
			return calls[key], nil
		}
	}

	mustGet := func(key string, want int) {
		t.Helper()
		if v, err := c.get(context.Background(), key, fnFor(key)); err != nil || v != want {
			t.Fatalf("get(%s) = (%d, %v), want %d", key, v, err, want)
		}
	}

	mustGet("a", 1)
	mustGet("b", 1)
	mustGet("a", 1) // refresh a: b becomes least recently used
	mustGet("c", 1) // evicts b
	if got := reg.Counter("cache.test.evictions").Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	mustGet("a", 1) // still cached
	mustGet("b", 2) // evicted: re-resolved
	if c.len() > 2 {
		t.Errorf("len = %d, want <= 2", c.len())
	}
}

func TestNegativeErrorCaching(t *testing.T) {
	notFound := errors.New("not found")
	c, reg := testCache(t, Config{})
	c.isNegErr = func(err error) bool { return errors.Is(err, notFound) }
	var calls int
	fn := func(ctx context.Context) (int, error) { calls++; return 0, notFound }

	for i := 0; i < 3; i++ {
		if _, err := c.get(context.Background(), "gone", fn); !errors.Is(err, notFound) {
			t.Fatalf("err = %v, want notFound", err)
		}
	}
	if calls != 1 {
		t.Errorf("upstream calls = %d, want 1 (negative cached)", calls)
	}
	if got := reg.Counter("cache.test.negative_hits").Value(); got != 2 {
		t.Errorf("negative hits = %d, want 2", got)
	}
}

func TestUncachedErrorsPassThrough(t *testing.T) {
	boom := errors.New("transport down")
	c, _ := testCache(t, Config{})
	var calls int
	fn := func(ctx context.Context) (int, error) { calls++; return 0, boom }
	for i := 0; i < 2; i++ {
		if _, err := c.get(context.Background(), "k", fn); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 2 {
		t.Errorf("upstream calls = %d, want 2 (hard errors are not cached)", calls)
	}
}

func TestServeStaleOn5xx(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1700000000, 0)}
	c, reg := testCache(t, Config{TTL: time.Minute, ServeStale: true, Clock: clk.Now})
	healthy := true
	var calls int
	fn := func(ctx context.Context) (int, error) {
		calls++
		if healthy {
			return 7, nil
		}
		return 0, fmt.Errorf("wrapped: %w", &netutil.APIError{Status: http.StatusBadGateway, Body: "upstream sad"})
	}

	if v, err := c.get(context.Background(), "k", fn); err != nil || v != 7 {
		t.Fatalf("initial get = (%d, %v)", v, err)
	}
	healthy = false
	clk.Advance(2 * time.Minute)
	v, err := c.get(context.Background(), "k", fn)
	if err != nil || v != 7 {
		t.Fatalf("degraded get = (%d, %v), want stale 7", v, err)
	}
	if calls != 2 {
		t.Errorf("upstream calls = %d, want 2 (stale serve still probes upstream)", calls)
	}
	if got := reg.Counter("cache.test.stale_served").Value(); got != 1 {
		t.Errorf("stale_served = %d, want 1", got)
	}

	// Without a stale entry for the key, the 5xx surfaces.
	if _, err := c.get(context.Background(), "fresh-key", fn); err == nil {
		t.Error("5xx with no stale entry returned nil error")
	}
}

func TestServeStaleDisabledPropagates5xx(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1700000000, 0)}
	c, _ := testCache(t, Config{TTL: time.Minute, Clock: clk.Now})
	healthy := true
	fn := func(ctx context.Context) (int, error) {
		if healthy {
			return 7, nil
		}
		return 0, &netutil.APIError{Status: http.StatusInternalServerError, Body: "boom"}
	}
	if _, err := c.get(context.Background(), "k", fn); err != nil {
		t.Fatal(err)
	}
	healthy = false
	clk.Advance(2 * time.Minute)
	if _, err := c.get(context.Background(), "k", fn); !netutil.IsStatus(err, http.StatusInternalServerError) {
		t.Errorf("err = %v, want 500 APIError (ServeStale off)", err)
	}
}

// --- decorator-level tests against the core.Services seam ---

type countingHLR struct{ calls atomic.Int32 }

func (f *countingHLR) Lookup(ctx context.Context, msisdn string) (hlr.Result, error) {
	f.calls.Add(1)
	return hlr.Result{Record: hlr.Record{MSISDN: msisdn}, Known: true}, nil
}

type countingExpander struct{ calls atomic.Int32 }

func (f *countingExpander) Expand(ctx context.Context, service, code string) (string, error) {
	f.calls.Add(1)
	if code == "dead" {
		return "", shortener.ErrTakenDown
	}
	return "https://target.example/" + code, nil
}

func TestDecoratorsShareServiceCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	cache := New(Config{}, reg)
	upstream := &countingHLR{}
	svcs := cache.WrapServices(core.Services{HLR: upstream})
	if svcs.Whois != nil || svcs.Shortener != nil {
		t.Fatal("nil services must stay nil after wrapping")
	}

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		// Key normalization folds the formatting variants together.
		msisdn := "+44 7700 900123"
		if i%2 == 0 {
			msisdn = "+44 7700 900123 "
		}
		res, err := svcs.HLR.Lookup(ctx, msisdn)
		if err != nil || !res.Known {
			t.Fatal(err)
		}
	}
	if n := upstream.calls.Load(); n != 1 {
		t.Errorf("upstream HLR calls = %d, want 1", n)
	}
	snap := reg.Snapshot()
	if snap.Counters["cache.hlr.hits"] != 4 || snap.Counters["cache.hlr.misses"] != 1 {
		t.Errorf("cache.hlr hits/misses = %d/%d, want 4/1",
			snap.Counters["cache.hlr.hits"], snap.Counters["cache.hlr.misses"])
	}
	st := cache.Stats()["hlr"]
	if st.Hits != 4 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestShortenerNegativeDecorator(t *testing.T) {
	cache := New(Config{}, telemetry.NewRegistry())
	upstream := &countingExpander{}
	exp := cache.WrapServices(core.Services{Shortener: upstream}).Shortener
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := exp.Expand(ctx, "bit.ly", "dead"); !errors.Is(err, shortener.ErrTakenDown) {
			t.Fatalf("err = %v", err)
		}
	}
	if n := upstream.calls.Load(); n != 1 {
		t.Errorf("upstream calls = %d, want 1 (takedown cached)", n)
	}
	if got, err := exp.Expand(ctx, "bit.ly", "live"); err != nil || got != "https://target.example/live" {
		t.Fatalf("live expand = (%q, %v)", got, err)
	}
	st := cache.Stats()["shortener"]
	if st.NegativeHit != 2 {
		t.Errorf("negative hits = %d, want 2", st.NegativeHit)
	}
}

func TestDNSNegativeNoRoute(t *testing.T) {
	cache := New(Config{}, telemetry.NewRegistry())
	var calls atomic.Int32
	res := cache.WrapServices(core.Services{DNSDB: fakeDNS{calls: &calls}}).DNSDB
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := res.ASOf(ctx, "203.0.113.9"); !errors.Is(err, dnsdb.ErrNoRoute) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("upstream ASOf calls = %d, want 1", calls.Load())
	}
}

type fakeDNS struct{ calls *atomic.Int32 }

func (f fakeDNS) Resolutions(ctx context.Context, domain string) ([]dnsdb.Observation, error) {
	return nil, nil
}

func (f fakeDNS) ASOf(ctx context.Context, ip string) (dnsdb.ASInfo, error) {
	f.calls.Add(1)
	return dnsdb.ASInfo{}, dnsdb.ErrNoRoute
}

func TestWriteRendersEveryService(t *testing.T) {
	cache := New(Config{}, telemetry.NewRegistry())
	var sb strings.Builder
	if err := Write(&sb, cache.Stats()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, svc := range []string{"hlr", "whois", "ctlog", "dnsdb", "avscan", "shortener"} {
		if !strings.Contains(out, svc) {
			t.Errorf("rendered stats missing service %q:\n%s", svc, out)
		}
	}
}
