// Package enrichcache is the shared lookup-caching tier between the
// measurement pipeline and the six enrichment services. The paper's 27.7k
// messages collapse onto a far smaller set of campaigns, domains, and
// sender numbers, so the enrichment stage re-queries WHOIS, CT, passive
// DNS, HLR, AV, and shortener expansion for the same keys thousands of
// times; this layer makes each distinct key cost one upstream call.
//
// Per keyed lookup it provides:
//
//   - singleflight coalescing: concurrent workers asking for the same key
//     share one in-flight upstream call;
//   - a TTL + LRU bound per service, so entries age out and memory stays
//     capped under production-scale key cardinality;
//   - negative-result caching: WHOIS not-found, shortener takedowns, and
//     unrouted IPs are remembered (with a shorter TTL) instead of re-asked;
//   - an optional serve-stale degraded mode: when the upstream answers
//     with a 5xx after retries, an expired entry is served instead of
//     failing the record.
//
// Every decision increments hit/miss/coalesced/negative/stale/eviction
// counters in the study's telemetry registry under
// "cache.<service>.<metric>", so cache effectiveness shows up next to the
// client metrics it eliminates.
package enrichcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/netutil"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Config tunes the cache. The zero value is usable: every field falls
// back to the documented default.
type Config struct {
	// TTL bounds how long positive results are served (default 5m).
	TTL time.Duration
	// NegativeTTL bounds how long negative results (not-found, taken
	// down, no route) are served; shorter than TTL because absence is
	// more volatile than presence (default 1m).
	NegativeTTL time.Duration
	// MaxEntries caps each per-service LRU (default 4096 entries).
	MaxEntries int
	// ServeStale serves an expired entry when the upstream returns a 5xx
	// after the client's own retries — degraded but populated records
	// instead of an aborted run.
	ServeStale bool
	// Clock overrides the time source (tests). It is process-local: it
	// does not cross to a shard worker process, which runs on time.Now.
	Clock func() time.Time `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.TTL == 0 {
		c.TTL = 5 * time.Minute
	}
	if c.NegativeTTL == 0 {
		c.NegativeTTL = time.Minute
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 4096
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// metrics is the per-service instrument bundle. All sub-caches of one
// service (e.g. avscan's scan/gsb/transparency tables) share one set.
type metrics struct {
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	coalesced *telemetry.Counter
	negatives *telemetry.Counter
	stale     *telemetry.Counter
	evictions *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry, service string) *metrics {
	prefix := "cache." + service + "."
	return &metrics{
		hits:      reg.Counter(prefix + "hits"),
		misses:    reg.Counter(prefix + "misses"),
		coalesced: reg.Counter(prefix + "coalesced"),
		negatives: reg.Counter(prefix + "negative_hits"),
		stale:     reg.Counter(prefix + "stale_served"),
		evictions: reg.Counter(prefix + "evictions"),
	}
}

// entry is one cached result. A non-nil err is a cached negative result
// (e.g. shortener.ErrTakenDown) replayed to every hit until it expires.
type entry[V any] struct {
	key     string
	val     V
	err     error
	expires time.Time
}

// call is one in-flight upstream lookup that followers wait on.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// lookupCache is the generic engine: a singleflight-coalesced, TTL'd LRU
// over one key space. Safe for concurrent use.
type lookupCache[V any] struct {
	mu       sync.Mutex
	lru      *list.List // front = most recently used; values are *entry[V]
	entries  map[string]*list.Element
	inflight map[string]*call[V]

	ttl        time.Duration
	negTTL     time.Duration
	max        int
	serveStale bool
	now        func() time.Time

	// isNegErr marks errors worth caching (not-found-shaped); other
	// errors pass through uncached.
	isNegErr func(error) bool
	// isNegVal marks value-level negatives (e.g. WHOIS found=false) that
	// should age with NegativeTTL.
	isNegVal func(V) bool

	met *metrics
}

func newLookupCache[V any](cfg Config, met *metrics) *lookupCache[V] {
	return &lookupCache[V]{
		lru:        list.New(),
		entries:    make(map[string]*list.Element),
		inflight:   make(map[string]*call[V]),
		ttl:        cfg.TTL,
		negTTL:     cfg.NegativeTTL,
		max:        cfg.MaxEntries,
		serveStale: cfg.ServeStale,
		now:        cfg.Clock,
		met:        met,
	}
}

// get returns the cached value for key, or resolves it through fn exactly
// once per expiry window no matter how many workers ask concurrently.
func (c *lookupCache[V]) get(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[V])
		if c.now().Before(e.expires) {
			c.lru.MoveToFront(el)
			c.met.hits.Inc()
			if e.err != nil || (c.isNegVal != nil && c.isNegVal(e.val)) {
				c.met.negatives.Inc()
			}
			val, err := e.val, e.err
			c.mu.Unlock()
			return val, err
		}
		// Expired: keep the entry around — serve-stale may need it.
	}
	if fl, ok := c.inflight[key]; ok {
		c.met.coalesced.Inc()
		c.mu.Unlock()
		select {
		case <-fl.done:
			return fl.val, fl.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	fl := &call[V]{done: make(chan struct{})}
	c.inflight[key] = fl
	c.met.misses.Inc()
	c.mu.Unlock()

	val, err := fn(ctx)

	c.mu.Lock()
	delete(c.inflight, key)
	switch {
	case err == nil:
		ttl := c.ttl
		if c.isNegVal != nil && c.isNegVal(val) {
			ttl = c.negTTL
		}
		c.store(key, val, nil, ttl)
	case c.isNegErr != nil && c.isNegErr(err):
		var zero V
		c.store(key, zero, err, c.negTTL)
	case c.serveStale && isUpstream5xx(err):
		if el, ok := c.entries[key]; ok {
			if e := el.Value.(*entry[V]); e.err == nil {
				c.lru.MoveToFront(el)
				c.met.stale.Inc()
				val, err = e.val, nil
			}
		}
	}
	fl.val, fl.err = val, err
	close(fl.done)
	c.mu.Unlock()
	return val, err
}

// store upserts an entry and enforces the LRU bound. Callers hold c.mu.
func (c *lookupCache[V]) store(key string, val V, err error, ttl time.Duration) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[V])
		e.val, e.err, e.expires = val, err, c.now().Add(ttl)
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry[V]{key: key, val: val, err: err, expires: c.now().Add(ttl)})
	for c.max > 0 && c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*entry[V]).key)
		c.met.evictions.Inc()
	}
}

// len reports the live entry count (expired-but-unevicted included).
func (c *lookupCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// isUpstream5xx reports whether err is (or wraps) a 5xx API response —
// the upstream answered but is degraded, the case serve-stale covers.
// Transport errors and context cancellation stay hard failures.
func isUpstream5xx(err error) bool {
	var ae *netutil.APIError
	return errors.As(err, &ae) && ae.Status >= 500
}
