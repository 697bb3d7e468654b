package shard

import (
	"context"
	"fmt"

	"github.com/smishkit/smishkit/internal/batchmux"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/enrichcache"
	"github.com/smishkit/smishkit/internal/faultinject"
	"github.com/smishkit/smishkit/internal/resilience"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Enricher is one shard's processing seam: it enriches and annotates a
// routed slice of curated records and returns them in the same order. The
// local implementation is a Stack; the multi-process mode substitutes a
// RemoteEnricher that ships the slice to a worker process over localhost.
type Enricher interface {
	EnrichAnnotate(ctx context.Context, recs []core.Record) ([]core.Record, error)
}

// StackStats is one shard's tier scoreboard. The maps are nil for tiers
// the stack was built without.
type StackStats struct {
	// Enriched counts records this shard has enriched since start.
	Enriched int64 `json:"enriched"`
	// Cache is the shard's enrichment-cache scoreboard.
	Cache enrichcache.Stats `json:"cache,omitempty"`
	// Batch is the batching scoreboard of the worker process serving the
	// shard. It is nil on an in-process shard's row: the process's shards
	// share one batching tier, which their caller reports once.
	Batch batchmux.Stats `json:"batch,omitempty"`
	// Resilience is the shard's circuit-breaker scoreboard.
	Resilience resilience.Stats `json:"resilience,omitempty"`
}

// StatsProvider is implemented by enrichers that can report tier stats
// (the local Stack directly, the RemoteEnricher by asking its worker).
type StatsProvider interface {
	Stats() (StackStats, bool)
}

// StackConfig assembles one process's enrichment tiers (see NewStacks).
// Tiers whose config is nil are omitted; Pipeline tunes each shard's
// enrichment workers and budgets (its Telemetry field is overwritten with
// the shard's registry). It is the one config for a shard wherever it
// runs: a worker process receives it whole as JSON and builds the tiers an
// in-process shard is built with. Fields tagged json:"-" (the cache Clock,
// the pipeline's Extractor, Telemetry and Streaming) are process-local and
// do not cross; a worker runs their defaults.
type StackConfig struct {
	Faults     *faultinject.Config
	Batch      *batchmux.Config
	Cache      *enrichcache.Config
	Resilience *resilience.Config
	Pipeline   core.Options
}

// Stack is one shard's private tiers over its process's shared ones: its
// own enrichment cache, breaker set and pipeline, recording into the
// registry the stack was built with. A sharded study hands each shard a
// Prefixed view, so these instruments land under "shard.<i>.*" in the one
// global registry; an unsharded study's single stack records on the root
// registry itself.
type Stack struct {
	pipe     *core.Pipeline
	ops      core.Ops    // the composed tiers the pipeline calls
	cfg      StackConfig // what the stack was built from
	cache    *enrichcache.Cache
	breakers *resilience.Breakers
	enriched *telemetry.Counter
}

// NewStacks composes one process's enrichment tiers around base: the
// process tiers once, recording on reg, and then one shard stack per
// registry in shardRegs, each recording on its own. It returns the stacks
// in shardRegs order and the process's batching tier (nil without
// cfg.Batch). Tier order, innermost first:
//
//	process: instrumented client <- faults <- batchmux
//	shard:   cache <- breaker <- pipeline
//
// Faults sit inside the batching tier so an injected fault degrades one
// slot of a batch, not the tier itself; batchmux sits inside
// the cache so only cache misses reach a window and every flushed answer
// is cached on the way back out; breakers sit outside the cache so hits
// cost them nothing and upstream 5xx reach the serve-stale path before
// being counted. Only the fault tier passes an op's Bulk form up;
// TestStackComposesTiersInOrder pins this order.
//
// Every stack's cache misses park in the one set of batch windows, so a
// window fills at the process's record rate however many shards the ring
// splits records across. The caches stay per shard: routing by key
// already keeps their contents disjoint.
func NewStacks(base core.Services, cfg StackConfig, reg *telemetry.Registry, shardRegs []*telemetry.Registry) ([]*Stack, *batchmux.Mux, error) {
	ops := core.OpsOf(base)
	if cfg.Faults != nil {
		ops = faultinject.New(*cfg.Faults, reg).Wrap(ops)
	}
	var mux *batchmux.Mux
	if cfg.Batch != nil {
		mux = batchmux.New(*cfg.Batch, reg)
		ops = mux.Wrap(ops)
	}
	stacks := make([]*Stack, len(shardRegs))
	for i, sreg := range shardRegs {
		st, err := newStack(ops, cfg, sreg)
		if err != nil {
			return nil, nil, fmt.Errorf("shard: build stack %d: %w", i, err)
		}
		stacks[i] = st
	}
	return stacks, mux, nil
}

// newStack composes one shard's tiers over the process's ops.
func newStack(ops core.Ops, cfg StackConfig, reg *telemetry.Registry) (*Stack, error) {
	st := &Stack{enriched: reg.Counter("enriched")}
	if cfg.Cache != nil {
		st.cache = enrichcache.New(*cfg.Cache, reg)
		ops = st.cache.Wrap(ops)
	}
	if cfg.Resilience != nil {
		st.breakers = resilience.New(*cfg.Resilience, reg)
		ops = st.breakers.Wrap(ops)
	}
	// A stack receives already-curated records and runs enrich+annotate
	// over them, which preserves input order exactly.
	cfg.Pipeline.Telemetry = reg
	pipe, err := core.NewPipelineOver(ops, cfg.Pipeline)
	if err != nil {
		return nil, fmt.Errorf("build pipeline: %w", err)
	}
	st.pipe, st.cfg, st.ops = pipe, cfg, ops
	return st, nil
}

// Config returns the config the stack was built from, with Telemetry set
// to the stack's registry; the tiers' and the pipeline's own defaults are
// not filled in.
func (st *Stack) Config() StackConfig { return st.cfg }

// EnrichAnnotate runs the shard's pipeline over a routed record slice,
// returning the records enriched and annotated in input order.
func (st *Stack) EnrichAnnotate(ctx context.Context, recs []core.Record) ([]core.Record, error) {
	if len(recs) == 0 {
		return recs, nil
	}
	ds := &core.Dataset{Records: recs}
	if err := st.pipe.Enrich(ctx, ds); err != nil {
		return nil, err
	}
	if err := st.pipe.Annotate(ctx, ds); err != nil {
		return nil, err
	}
	st.enriched.Add(int64(len(ds.Records)))
	return ds.Records, nil
}

// Healthy reports the stack as always live: an in-process stack shares the
// caller's fate, so there is no independent failure to detect. It exists so
// local and remote shard stacks satisfy the same HealthChecker seam.
func (st *Stack) Healthy(context.Context) error { return nil }

// Stats reports the shard's own tier scoreboards; Batch stays nil.
func (st *Stack) Stats() (StackStats, bool) {
	out := StackStats{Enriched: st.enriched.Value()}
	if st.cache != nil {
		out.Cache = st.cache.Stats()
	}
	if st.breakers != nil {
		out.Resilience = st.breakers.Stats()
	}
	return out, true
}
