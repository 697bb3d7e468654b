// Package netutil holds the small HTTP plumbing shared by every simulated
// third-party service (HLR, WHOIS, CT log, passive DNS, AV scanners,
// shorteners) and their clients: a token-bucket rate limiter, JSON
// request/response helpers, and a retrying client with exponential
// backoff honoring Retry-After. Clients without their own http.Client share
// one keep-alive connection pool (see MaxConnsPerHost).
package netutil

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/telemetry"
)

// TokenBucket is a thread-safe token-bucket rate limiter. The zero value is
// unusable; construct with NewTokenBucket.
type TokenBucket struct {
	mu       sync.Mutex
	capacity float64
	tokens   float64
	rate     float64 // tokens per second
	last     time.Time
	now      func() time.Time
}

// NewTokenBucket returns a bucket holding at most capacity tokens refilled
// at ratePerSec. It starts full.
func NewTokenBucket(capacity int, ratePerSec float64) *TokenBucket {
	return &TokenBucket{
		capacity: float64(capacity),
		tokens:   float64(capacity),
		rate:     ratePerSec,
		last:     time.Now(),
		now:      time.Now,
	}
}

// SetClock overrides the time source (tests).
func (b *TokenBucket) SetClock(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
	b.last = now()
}

// Allow consumes a token if available and reports success.
func (b *TokenBucket) Allow() bool { return b.AllowN(1) }

// AllowN consumes n tokens if available.
func (b *TokenBucket) AllowN(n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * b.rate
		if b.tokens > b.capacity {
			b.tokens = b.capacity
		}
		b.last = now
	}
	if b.tokens >= float64(n) {
		b.tokens -= float64(n)
		return true
	}
	return false
}

// RetryAfter estimates how long until n tokens are available.
func (b *TokenBucket) RetryAfter(n int) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	deficit := float64(n) - b.tokens
	if deficit <= 0 {
		return 0
	}
	return time.Duration(deficit / b.rate * float64(time.Second))
}

// WriteJSON encodes v to w with the given status code.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError emits a JSON error body {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// WriteRateLimited emits 429 with a Retry-After header.
func WriteRateLimited(w http.ResponseWriter, after time.Duration) {
	secs := int(after.Seconds()) + 1
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteError(w, http.StatusTooManyRequests, "rate limit exceeded")
}

// MaxConnsPerHost caps the shared pool's connections to one host, and its
// idle connections too, so every connection the pool opens stays reusable.
// Enrichment admits far more records than this, so the cap is what bounds
// concurrent calls to one upstream; it also bounds the heap each host's
// idle connections hold.
const MaxConnsPerHost = 8

// sharedHTTP is the pool every Client without an HTTPClient sends through:
// one transport, so concurrent calls to a host reuse keep-alive
// connections instead of dialing (and leaving in TIME_WAIT) one per call.
var sharedHTTP = newSharedHTTP()

func newSharedHTTP() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = MaxConnsPerHost
	tr.MaxIdleConnsPerHost = MaxConnsPerHost
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

// Client is a minimal retrying API client.
type Client struct {
	BaseURL    string
	APIKey     string       // sent as X-Api-Key when non-empty
	HTTPClient *http.Client // defaults to the shared 10s-timeout pool
	// MaxRetries caps retries on 429/5xx/transport errors: 0 means the
	// default of 3; any negative value disables retrying entirely (the
	// first response, whatever it is, is final).
	MaxRetries int
	Backoff    time.Duration     // base backoff; default 50ms
	Headers    map[string]string // extra headers
	// Sleep is swappable for tests; defaults to a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// Metrics, when non-nil, records calls, errors, retries, 429s, and
	// end-to-end latency (backoff included) for every request.
	Metrics *telemetry.ClientMetrics

	// jitterMu guards jitterRng, a lazily seeded per-client source:
	// backoff jitter must not serialize every client in the process on
	// math/rand's global lock.
	jitterMu  sync.Mutex
	jitterRng *rand.Rand
}

// jitter returns a uniform duration in [0, max] from the per-client
// source. max <= 0 yields 0.
func (c *Client) jitter(max int64) time.Duration {
	if max <= 0 {
		return 0
	}
	c.jitterMu.Lock()
	if c.jitterRng == nil {
		c.jitterRng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	d := time.Duration(c.jitterRng.Int63n(max + 1))
	c.jitterMu.Unlock()
	return d
}

// APIError is a non-2xx response with its body message.
type APIError struct {
	Status int
	Body   string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("api error: status %d: %s", e.Status, e.Body)
}

// IsStatus reports whether err is an APIError with the given status.
func IsStatus(err error, status int) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == status
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return sharedHTTP
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// GetJSON fetches path (relative to BaseURL) and decodes the JSON response
// into out, retrying 429/5xx with exponential backoff plus jitter.
func (c *Client) GetJSON(ctx context.Context, path string, out any) error {
	_, err := c.do(ctx, http.MethodGet, path, nil, out)
	return err
}

// GetBytes fetches a raw resource (media, a paste) at path relative to
// BaseURL and returns its body, with the same retries as GetJSON.
func (c *Client) GetBytes(ctx context.Context, path string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, path, nil, nil)
}

// PostJSON sends body as JSON and decodes the response into out.
func (c *Client) PostJSON(ctx context.Context, path string, body, out any) error {
	var buf []byte
	if body != nil {
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("netutil: encode request: %w", err)
		}
	}
	_, err := c.do(ctx, http.MethodPost, path, buf, out)
	return err
}

// do sends one request with retries and returns the successful response's
// body, decoded into out when out is non-nil.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) ([]byte, error) {
	m := c.Metrics
	if m == nil {
		return c.doRetry(ctx, method, path, body, out, nil)
	}
	m.Calls.Inc()
	start := time.Now()
	data, err := c.doRetry(ctx, method, path, body, out, m)
	m.Latency.Observe(time.Since(start))
	if err != nil {
		m.Errors.Inc()
	}
	return data, err
}

func (c *Client) doRetry(ctx context.Context, method, path string, body []byte, out any, m *telemetry.ClientMetrics) ([]byte, error) {
	retries := c.MaxRetries
	switch {
	case retries == 0:
		retries = 3
	case retries < 0:
		retries = 0 // explicitly disabled: one attempt, no backoff
	}
	backoff := c.Backoff
	if backoff == 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	// retryAfter carries the server's Retry-After hint from the most recent
	// 429/5xx response into the next backoff sleep; the next sleep is
	// max(Retry-After, computed backoff), so the client never retries
	// earlier than the server asked while keeping the exponential floor.
	var retryAfter time.Duration
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			if m != nil {
				m.Retries.Inc()
			}
			d := backoff << (attempt - 1)
			d += c.jitter(int64(d) / 2)
			if retryAfter > d {
				d = retryAfter
			}
			if err := c.sleep(ctx, d); err != nil {
				return nil, err
			}
		}
		retryAfter = 0
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rdr)
		if err != nil {
			return nil, fmt.Errorf("netutil: build request: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.APIKey != "" {
			req.Header.Set("X-Api-Key", c.APIKey)
		}
		for k, v := range c.Headers {
			req.Header.Set(k, v)
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			lastErr = err
			continue // transport error: retry
		}
		data, readErr := io.ReadAll(io.LimitReader(resp.Body, 10<<20))
		resp.Body.Close()
		if readErr != nil {
			lastErr = readErr
			continue
		}
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			if out != nil {
				if err := json.Unmarshal(data, out); err != nil {
					return nil, fmt.Errorf("netutil: decode response: %w", err)
				}
			}
			return data, nil
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
			if m != nil && resp.StatusCode == http.StatusTooManyRequests {
				m.RateLimited.Inc()
			}
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			lastErr = &APIError{Status: resp.StatusCode, Body: truncate(string(data), 200)}
			continue // retryable
		default:
			return nil, &APIError{Status: resp.StatusCode, Body: truncate(string(data), 200)}
		}
	}
	return nil, fmt.Errorf("netutil: %s %s failed after %d attempts: %w", method, path, retries+1, lastErr)
}

// parseRetryAfter interprets a Retry-After header value: delay-seconds
// first, then HTTP-date. Malformed values (and dates in the past) yield 0,
// falling the caller through to its computed backoff.
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// RequireKey wraps an http.Handler requiring X-Api-Key to equal key when
// key is non-empty.
func RequireKey(key string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if key != "" && r.Header.Get("X-Api-Key") != key {
			WriteError(w, http.StatusUnauthorized, "missing or invalid api key")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// ReadJSON decodes a request body into v, limited to 10 MiB.
func ReadJSON(r *http.Request, v any) error {
	defer r.Body.Close()
	dec := json.NewDecoder(io.LimitReader(r.Body, 10<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("netutil: decode body: %w", err)
	}
	return nil
}
