package netutil

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTokenBucketBasics(t *testing.T) {
	b := NewTokenBucket(2, 1000)
	if !b.Allow() || !b.Allow() {
		t.Fatal("full bucket refused tokens")
	}
	// Freeze the clock: the third take must fail.
	frozen := time.Now()
	b.SetClock(func() time.Time { return frozen })
	if b.Allow() {
		t.Fatal("empty bucket granted a token")
	}
	// Advance clock: tokens refill.
	frozen = frozen.Add(10 * time.Millisecond) // 1000/s * 10ms = 10 tokens, capped at 2
	if !b.AllowN(2) {
		t.Fatal("refilled bucket refused tokens")
	}
}

func TestTokenBucketRetryAfter(t *testing.T) {
	b := NewTokenBucket(1, 10)
	frozen := time.Now()
	b.SetClock(func() time.Time { return frozen })
	b.Allow()
	after := b.RetryAfter(1)
	if after <= 0 || after > 200*time.Millisecond {
		t.Errorf("RetryAfter = %v, want ~100ms", after)
	}
	if b.RetryAfter(0) != 0 {
		t.Error("RetryAfter(0) != 0")
	}
}

func TestClientGetJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Api-Key") != "sekrit" {
			WriteError(w, http.StatusUnauthorized, "no key")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"hello": "world"})
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, APIKey: "sekrit"}
	var out map[string]string
	if err := c.GetJSON(context.Background(), "/x", &out); err != nil {
		t.Fatal(err)
	}
	if out["hello"] != "world" {
		t.Errorf("body = %v", out)
	}
}

func TestClientRetriesOn429(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			WriteRateLimited(w, time.Millisecond)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]int{"ok": 1})
	}))
	defer srv.Close()

	c := &Client{
		BaseURL: srv.URL,
		Backoff: time.Millisecond,
		Sleep:   func(ctx context.Context, d time.Duration) error { return nil },
	}
	var out map[string]int
	if err := c.GetJSON(context.Background(), "/y", &out); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}
}

// TestClientHonorsRetryAfter pins the contract the package doc promises:
// when a 429 carries Retry-After, the next sleep is max(Retry-After,
// computed backoff), observed through the swappable Sleep clock.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			WriteError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]int{"ok": 1})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := &Client{
		BaseURL: srv.URL,
		Backoff: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	if err := c.GetJSON(context.Background(), "/ra", nil); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want 1", len(slept))
	}
	// Retry-After: 7 dominates the ~1.5ms computed backoff exactly.
	if slept[0] != 7*time.Second {
		t.Errorf("slept %v, want 7s from Retry-After", slept[0])
	}
}

// TestClientRetryAfterBelowBackoffKeepsBackoff: a tiny Retry-After must not
// shrink the exponential floor.
func TestClientRetryAfterBelowBackoffKeepsBackoff(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			WriteRateLimited(w, 0) // Retry-After: 1
			return
		}
		WriteJSON(w, http.StatusOK, map[string]int{"ok": 1})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := &Client{
		BaseURL: srv.URL,
		Backoff: 10 * time.Second,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	if err := c.GetJSON(context.Background(), "/ra-low", nil); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] < 10*time.Second {
		t.Errorf("slept %v, want >= 10s computed backoff", slept)
	}
}

// TestClientRetryAfterMalformed: unparseable header values fall through to
// the computed backoff instead of stalling or panicking.
func TestClientRetryAfterMalformed(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "soon-ish")
			WriteError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]int{"ok": 1})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := &Client{
		BaseURL: srv.URL,
		Backoff: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	if err := c.GetJSON(context.Background(), "/ra-bad", nil); err != nil {
		t.Fatal(err)
	}
	// Computed backoff (1ms base + up to 50% jitter) — nowhere near the
	// seconds scale a parsed header would produce.
	if len(slept) != 1 || slept[0] > 100*time.Millisecond {
		t.Errorf("slept %v, want small computed backoff", slept)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{" 12 ", 12 * time.Second},
		{"0", 0},
		{"-5", 0},
		{"garbage", 0},
		{"Mon, 02 Jan 2006 15:04:05 GMT", 0}, // long past
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// A future HTTP-date yields roughly the remaining interval.
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got < 20*time.Second || got > 31*time.Second {
		t.Errorf("parseRetryAfter(future date) = %v, want ~30s", got)
	}
}

func TestClientNoRetryOn404(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusNotFound, "nope")
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Sleep: func(ctx context.Context, d time.Duration) error { return nil }}
	err := c.GetJSON(context.Background(), "/z", nil)
	if !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("err = %v, want 404 APIError", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (no retry)", calls.Load())
	}
}

func TestClientGivesUpAfterRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusInternalServerError, "boom")
	}))
	defer srv.Close()

	c := &Client{
		BaseURL:    srv.URL,
		MaxRetries: 2,
		Sleep:      func(ctx context.Context, d time.Duration) error { return nil },
	}
	if err := c.GetJSON(context.Background(), "/w", nil); err == nil {
		t.Fatal("expected failure after retries")
	}
}

func TestClientNegativeMaxRetriesDisablesRetrying(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusInternalServerError, "boom")
	}))
	defer srv.Close()

	c := &Client{
		BaseURL:    srv.URL,
		MaxRetries: -1,
		Sleep:      func(ctx context.Context, d time.Duration) error { return nil },
	}
	if err := c.GetJSON(context.Background(), "/w", nil); err == nil {
		t.Fatal("expected failure")
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (negative MaxRetries disables retrying)", calls.Load())
	}
}

func TestClientZeroMaxRetriesMeansDefault(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusInternalServerError, "boom")
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Sleep: func(ctx context.Context, d time.Duration) error { return nil }}
	if err := c.GetJSON(context.Background(), "/w", nil); err == nil {
		t.Fatal("expected failure")
	}
	if calls.Load() != 4 {
		t.Errorf("calls = %d, want 4 (default 3 retries)", calls.Load())
	}
}

// TestClientJitterConcurrency exercises the lazily seeded per-client
// jitter source from many goroutines; run under -race in CI.
func TestClientJitterConcurrency(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			WriteError(w, http.StatusInternalServerError, "flaky")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]int{"ok": 1})
	}))
	defer srv.Close()

	c := &Client{
		BaseURL: srv.URL,
		Backoff: time.Nanosecond,
		Sleep:   func(ctx context.Context, d time.Duration) error { return nil },
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Hammer the shared source directly...
			for j := 0; j < 100; j++ {
				if d := c.jitter(int64(time.Second)); d < 0 || d > time.Second {
					t.Errorf("jitter out of range: %v", d)
				}
			}
			// ...and through the retry path (first upstream call 500s).
			var out map[string]int
			if err := c.GetJSON(context.Background(), "/j", &out); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if c.jitter(0) != 0 || c.jitter(-5) != 0 {
		t.Error("jitter(<=0) must be 0")
	}
}

func TestClientContextCancellation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusInternalServerError, "boom")
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Client{BaseURL: srv.URL}
	err := c.GetJSON(ctx, "/w", nil)
	if err == nil {
		t.Fatal("expected context error")
	}
}

func TestClientPostJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in map[string]string
		if r.Method != http.MethodPost {
			t.Errorf("method = %s", r.Method)
		}
		if err := ReadJSON(r, &in); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"echo": in["msg"]})
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	var out map[string]string
	if err := c.PostJSON(context.Background(), "/p", map[string]string{"msg": "hi"}, &out); err != nil {
		t.Fatal(err)
	}
	if out["echo"] != "hi" {
		t.Errorf("echo = %q", out["echo"])
	}
}

func TestRequireKey(t *testing.T) {
	h := RequireKey("k", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no key status = %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("X-Api-Key", "k")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("keyed status = %d", resp.StatusCode)
	}
}

// TestSharedPoolCapsConnections sends 200 calls from 32 goroutines through
// clients without their own http.Client: they share one keep-alive pool,
// so the server sees at most MaxConnsPerHost connections.
func TestSharedPoolCapsConnections(t *testing.T) {
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond) // keep calls overlapping
		WriteJSON(w, http.StatusOK, map[string]int{"ok": 1})
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	const goroutines, calls = 32, 200
	var next, failed atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Client{BaseURL: srv.URL} // a fresh client: the pool is shared, not per client
			for next.Add(1) <= calls {
				if err := c.GetJSON(context.Background(), "/pool", nil); err != nil {
					failed.Add(1)
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d calls failed", failed.Load())
	}
	if n := conns.Load(); n < 1 || n > MaxConnsPerHost {
		t.Errorf("server saw %d connections for %d calls, want 1..%d", n, calls, MaxConnsPerHost)
	}
}
