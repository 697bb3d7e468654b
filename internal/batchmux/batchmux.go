// Package batchmux is the windowed batching/coalescing tier between the
// enrichment cache and the fault layer: pipeline → breaker → cache →
// batchmux → faults → client. The paper's 27.7k messages collapse onto a
// few hundred domains, shorteners, and sender prefixes (Tables 5–8), so
// even after caching, a cold sweep still pays one HTTP round trip per
// distinct key; this tier turns those misses into bulk requests.
//
// Per batchable lookup (HLR MSISDNs, VirusTotal scans, passive-DNS
// resolutions, Safe Browsing lookups; the transparency report's
// gsb_status has no bulk form) it provides:
//
//   - windowed accumulation: concurrent single-key calls park in a
//     per-service window that flushes as one bulk request when it reaches
//     Window distinct keys or FlushInterval elapses, whichever is first;
//   - singleflight dedup inside the window: identical keys share one
//     slot and one answer;
//   - per-key error demultiplexing: the bulk transports carry one error
//     slot per key, so one bad key degrades one record, never the batch;
//   - graceful fallthrough: services whose client doesn't implement the
//     core.Bulk* seam pass through per-key, counted but untouched.
//
// Every decision increments flushes/batch_size/coalesced/fallthrough
// counters in the study's telemetry registry under
// "batch.<service>.<metric>", so batching effectiveness shows up next to
// the client metrics it eliminates.
package batchmux

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// DefaultWindow is Config.Window's default. A window fills only when at
// least this many records are in flight, which core.DefaultEnrichWorkers
// is sized for.
const DefaultWindow = 32

// Config tunes the mux. The zero value is usable: every field falls back
// to the documented default.
type Config struct {
	// Window flushes a service's pending keys once this many distinct
	// keys have accumulated (default DefaultWindow).
	Window int
	// FlushInterval flushes a partial window this long after its first
	// key arrived, so stragglers never wait on a window that no one else
	// will fill (default 5ms).
	FlushInterval time.Duration
}

const (
	// batchTimeout bounds each bulk call. The call runs under a detached
	// context because its waiters span many records — one record's
	// cancellation must not void everyone else's answers.
	batchTimeout = 30 * time.Second
	// maxInFlight caps concurrent bulk calls across all services, keeping
	// a burst of flushes from stampeding the backends.
	maxInFlight = 4
)

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 5 * time.Millisecond
	}
	return c
}

// metrics is the per-service instrument bundle. All batchers of one
// service (e.g. avscan's scan and gsb windows) share one set.
type metrics struct {
	flushes     *telemetry.Counter
	batchSize   *telemetry.Counter // cumulative keys flushed; mean batch = batchSize/flushes
	coalesced   *telemetry.Counter
	fellThrough *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry, service string) *metrics {
	prefix := "batch." + service + "."
	return &metrics{
		flushes:     reg.Counter(prefix + "flushes"),
		batchSize:   reg.Counter(prefix + "batch_size"),
		coalesced:   reg.Counter(prefix + "coalesced"),
		fellThrough: reg.Counter(prefix + "fallthrough"),
	}
}

// window is one accumulating batch: distinct keys in arrival order, and
// the parallel result/error slices populated at flush. done is closed
// once vals/errs are final; until then waiters must not read them.
type window[V any] struct {
	keys  []string
	index map[string]int
	done  chan struct{}
	vals  []V
	errs  []error
}

// batcher coalesces single-key gets over one key space into bulk calls.
// Safe for concurrent use.
type batcher[V any] struct {
	bulk     func(ctx context.Context, keys []string) ([]V, []error)
	window   int
	interval time.Duration
	sem      chan struct{} // the mux's shared maxInFlight cap
	met      *metrics

	mu  sync.Mutex
	cur *window[V]
}

func newBatcher[V any](cfg Config, sem chan struct{}, met *metrics,
	bulk func(ctx context.Context, keys []string) ([]V, []error)) *batcher[V] {
	return &batcher[V]{
		bulk:     bulk,
		window:   cfg.Window,
		interval: cfg.FlushInterval,
		sem:      sem,
		met:      met,
	}
}

// get parks the key in the current window and waits for its flush, or
// for ctx to end. The flush always runs on its own goroutine, so no
// caller sits in a bulk call past its own deadline: the caller that
// completes the window starts it, and partial windows are flushed by the
// interval timer armed when their first key arrives — essential, because
// a window's waiters may be fewer than its size, and nobody else would
// ever flush it.
func (b *batcher[V]) get(ctx context.Context, key string) (V, error) {
	b.mu.Lock()
	w := b.cur
	if w == nil {
		w = &window[V]{index: make(map[string]int, b.window), done: make(chan struct{})}
		b.cur = w
		time.AfterFunc(b.interval, func() { b.flushIfCurrent(w) })
	}
	i, ok := w.index[key]
	if !ok {
		i = len(w.keys)
		w.keys = append(w.keys, key)
		w.index[key] = i
	} else {
		b.met.coalesced.Inc()
	}
	if len(w.keys) >= b.window {
		b.cur = nil
		b.mu.Unlock()
		go b.flush(w)
	} else {
		b.mu.Unlock()
	}

	select {
	case <-w.done:
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
	if err := w.errs[i]; err != nil {
		var zero V
		return zero, err
	}
	return w.vals[i], nil
}

// flushIfCurrent is the timer path: a window that already flushed on size
// was detached from b.cur, so the generation check makes the timer a
// no-op for it.
func (b *batcher[V]) flushIfCurrent(w *window[V]) {
	b.mu.Lock()
	if b.cur != w {
		b.mu.Unlock()
		return
	}
	b.cur = nil
	b.mu.Unlock()
	b.flush(w)
}

func (b *batcher[V]) flush(w *window[V]) {
	b.sem <- struct{}{}
	defer func() { <-b.sem }()
	ctx, cancel := context.WithTimeout(context.Background(), batchTimeout)
	defer cancel()
	vals, errs := b.bulk(ctx, w.keys)
	w.vals = make([]V, len(w.keys))
	w.errs = make([]error, len(w.keys))
	for i := range w.keys {
		w.vals[i], w.errs[i] = core.BulkSlot(vals, errs, i)
	}
	b.met.flushes.Inc()
	b.met.batchSize.Add(int64(len(w.keys)))
	close(w.done)
}

// ServiceStats is one service's batching scoreboard.
type ServiceStats struct {
	// Flushes counts bulk requests sent upstream.
	Flushes int64 `json:"flushes"`
	// BatchedKeys is the cumulative key count across those flushes.
	BatchedKeys int64 `json:"batched_keys"`
	// Coalesced counts in-window duplicate keys that shared a slot.
	Coalesced int64 `json:"coalesced"`
	// Fallthrough counts per-key calls made because the wrapped client
	// has no bulk seam.
	Fallthrough int64 `json:"fallthrough"`
}

// AvgBatch is the mean keys per flush (0 when nothing flushed).
func (s ServiceStats) AvgBatch() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.BatchedKeys) / float64(s.Flushes)
}

// Stats maps service name (hlr, dnsdb, avscan) to its scoreboard.
type Stats map[string]ServiceStats

// Add returns s with o's counts added per service, allocating s when it is
// nil and o is not.
func (s Stats) Add(o Stats) Stats {
	if s == nil && o != nil {
		s = make(Stats, len(o))
	}
	for name, v := range o {
		t := s[name]
		t.Flushes += v.Flushes
		t.BatchedKeys += v.BatchedKeys
		t.Coalesced += v.Coalesced
		t.Fallthrough += v.Fallthrough
		s[name] = t
	}
	return s
}

// Write renders stats as an aligned text table, services sorted by name.
func Write(w io.Writer, stats Stats) error {
	if _, err := fmt.Fprintf(w, "request batching\n  %-10s %9s %12s %9s %12s %9s\n",
		"service", "flushes", "batched", "coalesced", "fallthrough", "avg/batch"); err != nil {
		return err
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := stats[name]
		if _, err := fmt.Fprintf(w, "  %-10s %9d %12d %9d %12d %9.1f\n",
			name, s.Flushes, s.BatchedKeys, s.Coalesced, s.Fallthrough, s.AvgBatch()); err != nil {
			return err
		}
	}
	return nil
}
