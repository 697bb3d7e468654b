// Package telemetry is a dependency-free metrics layer for the measurement
// pipeline and its simulated service clients: atomic counters and gauges,
// fixed-bucket latency histograms with percentile summaries, and named
// spans for pipeline stages. A Registry aggregates instruments by name and
// produces immutable JSON-serializable Snapshots; hot-path increments are
// allocation-free and safe under concurrent use.
//
// Every instrument tolerates a nil receiver (all operations no-op), so
// instrumented code never needs to branch on whether telemetry is wired.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter discards increments.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (no-op on a nil counter).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (e.g. busy workers). The zero
// value is ready to use; a nil *Gauge discards updates.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// spanStat accumulates completions of one named span.
type spanStat struct {
	count atomic.Int64
	total atomic.Int64 // nanoseconds
	last  atomic.Int64 // nanoseconds
}

// Span is one in-flight timed region. End it exactly once.
type Span struct {
	stat  *spanStat
	start time.Time
}

// End records the span's duration and returns it. On a span from a nil
// registry it only returns the elapsed time.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	if s.stat != nil {
		s.stat.count.Add(1)
		s.stat.total.Add(int64(d))
		s.stat.last.Store(int64(d))
	}
	return d
}

// Registry is a named collection of instruments. Instruments are created
// on first use and shared thereafter; all methods are safe for concurrent
// use. A nil *Registry hands out nil instruments, which discard updates.
//
// A Registry is a (possibly prefixed) view over shared instrument state:
// Prefixed returns a view that prepends a fixed prefix to every instrument
// name but records into the same underlying maps, so a sharded component
// can label its instruments "shard.0.cache.hits" while one snapshot (and
// one /debug/telemetry endpoint) still sees everything.
type Registry struct {
	prefix string
	s      *regState
}

// regState is the instrument storage every prefixed view of one registry
// shares.
type regState struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*spanStat
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		s: &regState{
			counters: make(map[string]*Counter),
			gauges:   make(map[string]*Gauge),
			hists:    make(map[string]*Histogram),
			spans:    make(map[string]*spanStat),
		},
	}
}

// Prefixed returns a view of the same registry that prepends prefix to
// every instrument name. Views nest (r.Prefixed("a.").Prefixed("b.")
// records under "a.b.") and share state with r: instruments created
// through any view appear in every view's Snapshot. A nil registry yields
// a nil (discard-everything) view.
func (r *Registry) Prefixed(prefix string) *Registry {
	if r == nil || r.s == nil {
		return nil
	}
	return &Registry{prefix: r.prefix + prefix, s: r.s}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil || r.s == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.RLock()
	c, ok := r.s.counters[name]
	r.s.mu.RUnlock()
	if ok {
		return c
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if c, ok = r.s.counters[name]; !ok {
		c = &Counter{}
		r.s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil || r.s == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.RLock()
	g, ok := r.s.gauges[name]
	r.s.mu.RUnlock()
	if ok {
		return g
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if g, ok = r.s.gauges[name]; !ok {
		g = &Gauge{}
		r.s.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil || r.s == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.RLock()
	h, ok := r.s.hists[name]
	r.s.mu.RUnlock()
	if ok {
		return h
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if h, ok = r.s.hists[name]; !ok {
		h = newHistogram()
		r.s.hists[name] = h
	}
	return h
}

// StartSpan begins a named timed region; call End on the result.
func (r *Registry) StartSpan(name string) Span {
	if r == nil || r.s == nil {
		return Span{start: time.Now()}
	}
	name = r.prefix + name
	r.s.mu.RLock()
	st, ok := r.s.spans[name]
	r.s.mu.RUnlock()
	if !ok {
		r.s.mu.Lock()
		if st, ok = r.s.spans[name]; !ok {
			st = &spanStat{}
			r.s.spans[name] = st
		}
		r.s.mu.Unlock()
	}
	return Span{stat: st, start: time.Now()}
}

// Snapshot is a point-in-time copy of every instrument, suitable for JSON
// encoding and rendering.
type Snapshot struct {
	TakenAt    time.Time                 `json:"taken_at"`
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
	Spans      map[string]SpanStats      `json:"spans"`
}

// SpanStats summarizes completions of one named span.
type SpanStats struct {
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Last  time.Duration `json:"last_ns"`
}

// CounterValue returns the named counter's value, or 0 when the snapshot
// never recorded it: a quiet instrument is simply absent from the maps,
// including in a snapshot decoded from a /debug/telemetry response.
func (s Snapshot) CounterValue(name string) int64 { return s.Counters[name] }

// Snapshot copies the current state of every instrument. A nil registry
// yields an empty (but usable) snapshot. A prefixed view snapshots the
// full shared state, not only its own prefix — there is one registry
// underneath, and the snapshot reflects all of it.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		TakenAt:    time.Now().UTC(),
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStats{},
		Spans:      map[string]SpanStats{},
	}
	if r == nil || r.s == nil {
		return snap
	}
	r.s.mu.RLock()
	defer r.s.mu.RUnlock()
	for name, c := range r.s.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.s.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.s.hists {
		snap.Histograms[name] = h.Stats()
	}
	for name, st := range r.s.spans {
		snap.Spans[name] = SpanStats{
			Count: st.count.Load(),
			Total: time.Duration(st.total.Load()),
			Last:  time.Duration(st.last.Load()),
		}
	}
	return snap
}
