package shard

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/enrichcache"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Group routes curated records across N shard enrichers and merges their
// output deterministically. One batch flows through it as:
//
//	reports -> front.Curate -> ring-route by KeyOf -> N concurrent
//	EnrichAnnotate calls -> scatter results back into curation order
//
// Because curation is deterministic and every record returns to the index
// it was curated at, the merged Dataset is byte-identical for any shard
// count — and identical to a barrier Pipeline.Run over the same reports
// (an unsharded study is a group of one). Downstream
// consumers (report projections, the union-find campaign view) therefore
// need no shard-aware merge of their own: they see the same record
// sequence they always did.
// When a Prober is attached (AttachProber), the group additionally runs
// the failover protocol: shards whose probe is down are skipped at
// routing time (their keys slide to the ring's next-alive shard), and a
// shard whose EnrichAnnotate fails mid-round has its routed subset
// re-dispatched to the survivors. Output stays byte-identical because
// enrichment is key-deterministic — which stack executes a record never
// changes the record, only cache locality — so failover is invisible in
// the dataset and visible only in the per-shard telemetry.
type Group struct {
	ring         *Ring
	front        *core.Pipeline
	mu           sync.RWMutex
	enrichers    []Enricher
	remote       bool
	prober       *Prober
	routed       []*telemetry.Counter
	failures     []*telemetry.Counter
	restarts     []*telemetry.Counter
	batches      *telemetry.Counter
	redispatched *telemetry.Counter
	failoverWav  *telemetry.Counter
}

// NewGroup builds a router over the given enrichers. front curates each
// incoming batch (its services are never called — curation is offline);
// replicas tunes the ring's virtual-node count (0 = DefaultReplicas). The
// per-shard "shard.<i>.routed" counters land in reg.
func NewGroup(front *core.Pipeline, enrichers []Enricher, replicas int, reg *telemetry.Registry) (*Group, error) {
	if front == nil {
		return nil, fmt.Errorf("shard: group needs a front pipeline")
	}
	if len(enrichers) == 0 {
		return nil, fmt.Errorf("shard: group needs at least one enricher")
	}
	ring, err := NewRing(len(enrichers), replicas)
	if err != nil {
		return nil, err
	}
	g := &Group{
		ring:         ring,
		front:        front,
		enrichers:    enrichers,
		routed:       make([]*telemetry.Counter, len(enrichers)),
		failures:     make([]*telemetry.Counter, len(enrichers)),
		restarts:     make([]*telemetry.Counter, len(enrichers)),
		batches:      reg.Counter("shard.batches"),
		redispatched: reg.Counter("shard.failover.redispatched"),
		failoverWav:  reg.Counter("shard.failover.waves"),
	}
	for i := range g.routed {
		g.routed[i] = reg.Counter("shard." + strconv.Itoa(i) + ".routed")
		g.failures[i] = reg.Counter("shard." + strconv.Itoa(i) + ".failures")
		g.restarts[i] = reg.Counter("shard." + strconv.Itoa(i) + ".restarts")
	}
	return g, nil
}

// AttachProber wires a health prober to the group and enables failover:
// routing starts consulting the prober's alive mask, a failed dispatch is
// re-dispatched to survivors instead of failing the round, and the prober
// pulls its targets from the group's current enricher set. The prober must
// have been built for the group's shard count.
func (g *Group) AttachProber(p *Prober) {
	g.mu.Lock()
	g.prober = p
	g.mu.Unlock()
	p.SetSource(g.enrichersSnapshot)
}

// Prober returns the attached health prober (nil when failover is off).
func (g *Group) Prober() *Prober {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.prober
}

// enrichersSnapshot returns the current enricher slice (copy-on-write, so
// the returned slice is never mutated).
func (g *Group) enrichersSnapshot() []Enricher {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.enrichers
}

// Shards returns the group's shard count.
func (g *Group) Shards() int { return g.ring.Shards() }

// SetEnrichers swaps the group's enrichers — the seam the multi-process
// mode uses to replace local stacks with remote workers after the worker
// processes have reported their URLs. The count must match the ring.
func (g *Group) SetEnrichers(enrichers []Enricher, remote bool) error {
	if len(enrichers) != g.ring.Shards() {
		return fmt.Errorf("shard: group has %d shards, got %d enrichers", g.ring.Shards(), len(enrichers))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.enrichers = enrichers
	g.remote = remote
	return nil
}

// SetEnricher swaps a single shard's enricher — the seam the worker
// supervisor uses to re-register a restarted worker's fresh URL. The swap
// is copy-on-write so a Run holding the previous snapshot is unaffected;
// a fresh enricher is marked up in the prober immediately (the supervisor
// health-checks it before calling).
func (g *Group) SetEnricher(i int, e Enricher, remote bool) error {
	g.mu.Lock()
	if i < 0 || i >= len(g.enrichers) {
		n := len(g.enrichers)
		g.mu.Unlock()
		return fmt.Errorf("shard: enricher index %d out of range (group has %d shards)", i, n)
	}
	next := make([]Enricher, len(g.enrichers))
	copy(next, g.enrichers)
	next[i] = e
	g.enrichers = next
	g.remote = g.remote || remote
	p := g.prober
	g.mu.Unlock()
	if p != nil {
		p.MarkUp(i)
	}
	return nil
}

// NoteRestart records one supervisor restart of shard i's worker, counted
// in "shard.<i>.restarts" and surfaced as ShardInfo.Restarts.
func (g *Group) NoteRestart(i int) {
	if i < 0 || i >= len(g.restarts) {
		return
	}
	g.restarts[i].Inc()
}

// Run curates one batch, routes it, and returns the merged dataset. A
// shard that fails mid-round has its routed subset re-dispatched to the
// ring's next-alive survivors, and shards the probe reports down are
// skipped up front. When a failed subset has no survivor to go to, Run
// returns a nil dataset (the serve loop treats the round as failed) and
// an error wrapping the lowest-indexed shard's. The prober configures the
// survivors: without one there are none, so any shard failure fails the
// round; with one, Run fails only when every shard has.
func (g *Group) Run(ctx context.Context, reports []forum.RawReport) (*core.Dataset, error) {
	g.mu.RLock()
	prober := g.prober
	g.mu.RUnlock()
	g.batches.Inc()

	sp := g.front.Telemetry().StartSpan("shard.route")
	ds := g.front.Curate(reports)
	n := g.ring.Shards()

	// The alive mask holds the survivors: the prober's current view, or
	// none without a prober, so every record goes to its primary and no
	// failed subset has anywhere to slide. If the probe claims everything
	// is down, route optimistically to the primaries anyway — a wholly-down
	// mask is more likely a probe outage than N simultaneous worker deaths,
	// and the dispatch errors will say so authoritatively.
	alive := make([]bool, n)
	if prober != nil {
		copy(alive, prober.AliveMask())
		if !slices.Contains(alive, true) {
			for i := range alive {
				alive[i] = true
			}
		}
	}

	// Routing keys are computed once and reused by every re-dispatch wave:
	// KeyOf depends only on curated fields, so the key survives (and is
	// identical after) enrichment attempts.
	keys := make([]string, len(ds.Records))
	assign := make([][]int, n)
	preRouted := 0
	for i := range ds.Records {
		keys[i] = KeyOf(&ds.Records[i])
		s := g.ring.Shard(keys[i])
		if !alive[s] {
			if s2 := g.ring.ShardAlive(keys[i], alive); s2 >= 0 {
				s = s2
				preRouted++
			}
		}
		assign[s] = append(assign[s], i)
	}
	if preRouted > 0 {
		g.redispatched.Add(int64(preRouted))
	}
	sp.End()

	// Dispatch waves: the first covers every record; each later wave only
	// the subsets of shards that failed the previous one. Every wave
	// removes at least one shard from the alive mask, so the loop runs at
	// most n times.
	for {
		enrichers := g.enrichersSnapshot()
		var wg sync.WaitGroup
		errs := make([]error, n)
		for s := 0; s < n; s++ {
			if len(assign[s]) == 0 {
				continue
			}
			g.routed[s].Add(int64(len(assign[s])))
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				idxs := assign[s]
				subset := make([]core.Record, len(idxs))
				for j, idx := range idxs {
					subset[j] = ds.Records[idx]
				}
				out, err := enrichers[s].EnrichAnnotate(ctx, subset)
				if err != nil {
					errs[s] = fmt.Errorf("shard %d: %w", s, err)
					return
				}
				if len(out) != len(idxs) {
					errs[s] = fmt.Errorf("shard %d: returned %d records for %d routed", s, len(out), len(idxs))
					return
				}
				// Scatter back into the curation-order slots — the merge that
				// makes shard count invisible in the output.
				for j, idx := range idxs {
					ds.Records[idx] = out[j]
				}
			}(s)
		}
		wg.Wait()

		var failed []int
		var firstErr error
		for s, err := range errs {
			if err != nil {
				failed = append(failed, s)
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		if len(failed) == 0 {
			return ds, nil
		}
		if ctx.Err() != nil {
			// The whole round's context is gone: re-trying against a dead
			// context would just re-fail every shard.
			return nil, firstErr
		}

		// Failover: mark the failed shards down (routing and the next probe
		// tick both see it) and slide their subsets to the next-alive shards.
		for _, f := range failed {
			alive[f] = false
			if prober != nil {
				prober.MarkDown(f)
			}
			g.failures[f].Inc()
		}
		next := make([][]int, n)
		moved := 0
		for _, f := range failed {
			for _, idx := range assign[f] {
				s2 := g.ring.ShardAlive(keys[idx], alive)
				if s2 < 0 {
					return nil, fmt.Errorf("shard: no survivor to re-dispatch to: %w", firstErr)
				}
				next[s2] = append(next[s2], idx)
				moved++
			}
		}
		g.redispatched.Add(int64(moved))
		g.failoverWav.Inc()
		assign = next
	}
}

// ShardInfo is one shard's row in GroupStats.
type ShardInfo struct {
	// Index is the shard's position on the ring.
	Index int `json:"index"`
	// Routed counts records routed to this shard since start (re-dispatched
	// records count against the shard that actually ran them).
	Routed int64 `json:"routed"`
	// Remote is set when the shard is a separate worker process.
	Remote bool `json:"remote,omitempty"`
	// Healthy is the prober's current up/down view (nil when the group has
	// no prober attached).
	Healthy *bool `json:"healthy,omitempty"`
	// Flaps counts the shard's up<->down transitions.
	Flaps int64 `json:"flaps,omitempty"`
	// Failures counts the shard's EnrichAnnotate failures; with a prober
	// attached, each one marked the shard down.
	Failures int64 `json:"failures,omitempty"`
	// Restarts counts supervisor restarts of the shard's worker process.
	Restarts int64 `json:"restarts,omitempty"`
	// Stack is the shard's tier scoreboard (nil when unavailable, e.g. an
	// unreachable remote worker).
	Stack *StackStats `json:"stack,omitempty"`
}

// GroupStats is the sharding scoreboard Study.Stats surfaces as Shards.
type GroupStats struct {
	// Shards is the configured shard count.
	Shards int `json:"shards"`
	// Batches counts routed batches since start.
	Batches int64 `json:"batches"`
	// Failover reports whether the lifecycle layer (prober + re-dispatch)
	// is enabled.
	Failover bool `json:"failover,omitempty"`
	// Redispatched counts records routed away from their primary shard
	// because it was down or failed mid-round.
	Redispatched int64 `json:"redispatched,omitempty"`
	// PerShard has one row per shard, in index order.
	PerShard []ShardInfo `json:"per_shard"`
}

// Stats reports routing totals and, where available, per-shard tier
// scoreboards. Safe to call concurrently with Run.
func (g *Group) Stats() GroupStats {
	g.mu.RLock()
	enrichers := g.enrichers
	remote := g.remote
	prober := g.prober
	g.mu.RUnlock()
	out := GroupStats{
		Shards:       g.ring.Shards(),
		Batches:      g.batches.Value(),
		Failover:     prober != nil,
		Redispatched: g.redispatched.Value(),
		PerShard:     make([]ShardInfo, len(enrichers)),
	}
	for i, e := range enrichers {
		info := ShardInfo{
			Index:    i,
			Routed:   g.routed[i].Value(),
			Remote:   remote,
			Failures: g.failures[i].Value(),
			Restarts: g.restarts[i].Value(),
		}
		if prober != nil {
			up := prober.Up(i)
			info.Healthy = &up
			info.Flaps = prober.Flaps(i)
		}
		if sp, ok := e.(StatsProvider); ok {
			if st, ok := sp.Stats(); ok {
				info.Stack = &st
			}
		}
		out.PerShard[i] = info
	}
	return out
}

// Write renders a GroupStats snapshot as aligned text, one shard per row.
func Write(w io.Writer, st GroupStats) error {
	head := fmt.Sprintf("shards (n=%d, batches=%d", st.Shards, st.Batches)
	if st.Failover {
		head += fmt.Sprintf(", failover on, redispatched=%d", st.Redispatched)
	}
	if _, err := fmt.Fprintln(w, head+")"); err != nil {
		return err
	}
	for _, sh := range st.PerShard {
		mode := "local"
		if sh.Remote {
			mode = "remote"
		}
		line := fmt.Sprintf("  shard %-3d %-6s routed=%-8d", sh.Index, mode, sh.Routed)
		if sh.Healthy != nil {
			state := "up"
			if !*sh.Healthy {
				state = "DOWN"
			}
			line += fmt.Sprintf(" %-4s flaps=%-3d failures=%-3d restarts=%-3d", state, sh.Flaps, sh.Failures, sh.Restarts)
		}
		if sh.Stack != nil {
			line += fmt.Sprintf(" enriched=%-8d", sh.Stack.Enriched)
			var sum enrichcache.ServiceStats
			for _, cs := range sh.Stack.Cache {
				sum.Hits += cs.Hits
				sum.Misses += cs.Misses
				sum.Coalesced += cs.Coalesced
			}
			if sum.Hits+sum.Misses+sum.Coalesced > 0 {
				line += fmt.Sprintf(" cache=%.0f%%", 100*sum.HitRate())
			}
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
