package enrichcache

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/shortener"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Cache is one shared enrichment cache: a per-service set of
// singleflight-coalesced TTL/LRU lookup tables that decorate the
// core.Ops seam. Build one per study (or share across studies that
// share a telemetry registry) and attach it with Wrap.
type Cache struct {
	hlrC   *lookupCache[hlr.Result]
	whoisC *lookupCache[core.WhoisAnswer]
	ctC    *lookupCache[ctlog.Summary]
	pdnsC  *lookupCache[[]dnsdb.Observation]
	asnC   *lookupCache[dnsdb.ASInfo]
	scanC  *lookupCache[avscan.Report]
	gsbC   *lookupCache[avscan.GSBResult]
	transC *lookupCache[core.TransparencyAnswer]
	shortC *lookupCache[string]

	perService map[string]*serviceState
}

// serviceState joins one service's metric bundle with the entry counters
// of every table recorded under that service name.
type serviceState struct {
	met  *metrics
	lens []func() int
}

// New builds a cache recording into reg (nil is allowed: counters become
// no-ops and Stats still works off zero values — but pair it with the
// study's registry so hit rates land next to the client metrics).
func New(cfg Config, reg *telemetry.Registry) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{perService: make(map[string]*serviceState, 6)}
	c.hlrC = newTable[hlr.Result](c, "hlr", cfg, reg)
	c.whoisC = newTable[core.WhoisAnswer](c, "whois", cfg, reg)
	// WHOIS not-found is a value-level negative: cache it, but let it age
	// with NegativeTTL since the domain may get registered.
	c.whoisC.isNegVal = func(a core.WhoisAnswer) bool { return !a.Found }
	c.ctC = newTable[ctlog.Summary](c, "ctlog", cfg, reg)
	c.pdnsC = newTable[[]dnsdb.Observation](c, "dnsdb", cfg, reg)
	c.asnC = newTable[dnsdb.ASInfo](c, "dnsdb", cfg, reg)
	c.asnC.isNegErr = func(err error) bool { return errors.Is(err, dnsdb.ErrNoRoute) }
	c.scanC = newTable[avscan.Report](c, "avscan", cfg, reg)
	c.gsbC = newTable[avscan.GSBResult](c, "avscan", cfg, reg)
	c.transC = newTable[core.TransparencyAnswer](c, "avscan", cfg, reg)
	c.shortC = newTable[string](c, "shortener", cfg, reg)
	c.shortC.isNegErr = func(err error) bool {
		return errors.Is(err, shortener.ErrNotFound) || errors.Is(err, shortener.ErrTakenDown)
	}
	return c
}

// newTable builds one lookup table recorded under service: the tables of
// one service share its metric bundle, and Stats sums their entries.
func newTable[V any](c *Cache, service string, cfg Config, reg *telemetry.Registry) *lookupCache[V] {
	st := c.perService[service]
	if st == nil {
		st = &serviceState{met: newMetrics(reg, service)}
		c.perService[service] = st
	}
	t := newLookupCache[V](cfg, st.met)
	st.lens = append(st.lens, t.len)
	return t
}

// Wrap puts every present op behind its table. Absent ops stay absent,
// so stage-skipping semantics are preserved. The wrapped ops have no Bulk
// form: bulk calls belong below the cache, where only its misses go.
func (c *Cache) Wrap(o core.Ops) core.Ops {
	o.HLR = cached(o.HLR, c.hlrC)
	o.Whois = cached(o.Whois, c.whoisC)
	o.CT = cached(o.CT, c.ctC)
	o.PDNS = cached(o.PDNS, c.pdnsC)
	o.ASN = cached(o.ASN, c.asnC)
	o.Scan = cached(o.Scan, c.scanC)
	o.GSB = cached(o.GSB, c.gsbC)
	o.Transparency = cached(o.Transparency, c.transC)
	o.Expand = cached(o.Expand, c.shortC)
	return o
}

// WrapServices is Wrap for callers holding service clients.
func (c *Cache) WrapServices(s core.Services) core.Services {
	return c.Wrap(core.OpsOf(s)).Services()
}

// cached answers op from table t under op's canonical key, calling op
// only on a miss. An absent op stays absent.
func cached[K, V any](op core.Op[K, V], t *lookupCache[V]) core.Op[K, V] {
	if op.Call == nil {
		return op
	}
	call, key := op.Call, op.Key
	op.Call = func(ctx context.Context, k K) (V, error) {
		return t.get(ctx, key(k), func(ctx context.Context) (V, error) { return call(ctx, k) })
	}
	op.Bulk = nil
	return op
}

// ServiceStats is one service's cache scoreboard.
type ServiceStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Coalesced   int64 `json:"coalesced"`
	NegativeHit int64 `json:"negative_hits"`
	StaleServed int64 `json:"stale_served"`
	Evictions   int64 `json:"evictions"`
	Entries     int   `json:"entries"`
}

// HitRate is the share of lookups served without a call of their own:
// hits plus coalesced followers, over hits, misses and coalesced (0 when
// the service was never asked). Whether a repeat lookup finds its answer
// cached or still in flight depends on scheduling; how many lookups
// missed does not, so neither does the rate.
func (s ServiceStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Stats maps service name (hlr, whois, ctlog, dnsdb, avscan, shortener)
// to its scoreboard.
type Stats map[string]ServiceStats

// Stats snapshots every service's counters and live entry counts.
func (c *Cache) Stats() Stats {
	out := make(Stats, len(c.perService))
	for name, st := range c.perService {
		s := ServiceStats{
			Hits:        st.met.hits.Value(),
			Misses:      st.met.misses.Value(),
			Coalesced:   st.met.coalesced.Value(),
			NegativeHit: st.met.negatives.Value(),
			StaleServed: st.met.stale.Value(),
			Evictions:   st.met.evictions.Value(),
		}
		for _, l := range st.lens {
			s.Entries += l()
		}
		out[name] = s
	}
	return out
}

// Write renders stats as an aligned text table, services sorted by name.
func Write(w io.Writer, stats Stats) error {
	if _, err := fmt.Fprintf(w, "enrichment cache\n  %-10s %9s %9s %9s %9s %9s %9s %8s %7s\n",
		"service", "hits", "misses", "coalesced", "negative", "stale", "evicted", "entries", "hit%"); err != nil {
		return err
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := stats[name]
		if _, err := fmt.Fprintf(w, "  %-10s %9d %9d %9d %9d %9d %9d %8d %6.1f%%\n",
			name, s.Hits, s.Misses, s.Coalesced, s.NegativeHit, s.StaleServed,
			s.Evictions, s.Entries, 100*s.HitRate()); err != nil {
			return err
		}
	}
	return nil
}
