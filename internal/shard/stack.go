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
	// Batch is the shard's batching scoreboard.
	Batch batchmux.Stats `json:"batch,omitempty"`
	// Resilience is the shard's circuit-breaker scoreboard.
	Resilience resilience.Stats `json:"resilience,omitempty"`
}

// StatsProvider is implemented by enrichers that can report tier stats
// (the local Stack directly, the RemoteEnricher by asking its worker).
type StatsProvider interface {
	Stats() (StackStats, bool)
}

// StackConfig assembles one shard's decorator stack. Tiers whose config is
// nil are omitted; Pipeline tunes the shard's enrichment workers and
// budgets (see ResolveBudgets; its Telemetry field is overwritten with the
// stack's registry).
type StackConfig struct {
	Faults     *faultinject.Config
	Batch      *batchmux.Config
	Cache      *enrichcache.Config
	Resilience *resilience.Config
	Pipeline   core.Options
}

// Stack is one shard's private tier set over a shared base Services value:
// its own enrichment cache, batchmux windows, breaker set, and pipeline,
// all recording into the registry the stack was built with. A sharded
// study hands each shard a Prefixed view, so instruments land under
// "shard.<i>.*" in the one global registry; an unsharded study's single
// stack records on the root registry itself.
type Stack struct {
	pipe     *core.Pipeline
	popts    core.Options // what pipe was built from, budgets resolved
	cache    *enrichcache.Cache
	batch    *batchmux.Mux
	breakers *resilience.Breakers
	enriched *telemetry.Counter
}

// ResolveBudgets returns p with its enrichment budgets resolved: a budget
// set explicitly in p wins, and each one left at zero takes r's value (r
// may be nil). Every stack, local or in a worker process, runs with the
// budgets this resolves.
func ResolveBudgets(p core.Options, r *resilience.Config) core.Options {
	if r == nil {
		return p
	}
	if p.RecordBudget == 0 {
		p.RecordBudget = r.RecordBudget
	}
	if p.CallTimeout == 0 {
		p.CallTimeout = r.CallTimeout
	}
	if p.AbortFailureRate == 0 {
		p.AbortFailureRate = r.AbortFailureRate
	}
	if p.MinAbortCalls == 0 {
		p.MinAbortCalls = r.MinAbortCalls
	}
	return p
}

// NewStack builds one shard's tiers around base. Decorator order,
// innermost first: instrumented client <- faults <- batchmux <- cache <-
// breaker <- pipeline. Faults sit inside the batching tier so a flapping
// window degrades individual slots of a batch, not the tier itself;
// batchmux sits inside the cache so only cache misses reach a window and
// every flushed answer is cached on the way back out; breakers sit outside
// the cache so hits cost them nothing and upstream 5xx reach the
// serve-stale path before being counted.
func NewStack(base core.Services, cfg StackConfig, reg *telemetry.Registry) (*Stack, error) {
	services := base
	if cfg.Faults != nil {
		services = faultinject.New(*cfg.Faults, reg).WrapServices(services)
	}
	st := &Stack{enriched: reg.Counter("enriched")}
	if cfg.Batch != nil {
		st.batch = batchmux.New(*cfg.Batch, reg)
		services = st.batch.WrapServices(services)
	}
	if cfg.Cache != nil {
		st.cache = enrichcache.New(*cfg.Cache, reg)
		services = st.cache.WrapServices(services)
	}
	if cfg.Resilience != nil {
		st.breakers = resilience.New(*cfg.Resilience, reg)
		services = st.breakers.WrapServices(services)
	}
	// A stack receives already-curated records and runs enrich+annotate
	// over them, which preserves input order exactly.
	popts := ResolveBudgets(cfg.Pipeline, cfg.Resilience)
	popts.Telemetry = reg
	pipe, err := core.NewPipeline(services, popts)
	if err != nil {
		return nil, fmt.Errorf("shard: build pipeline: %w", err)
	}
	st.pipe, st.popts = pipe, popts
	return st, nil
}

// PipelineOptions returns the options the stack built its pipeline from:
// the configured ones with ResolveBudgets applied, before the pipeline's
// own defaults fill the fields still zero.
func (st *Stack) PipelineOptions() core.Options { return st.popts }

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

// Stats reports the shard's tier scoreboards.
func (st *Stack) Stats() (StackStats, bool) {
	out := StackStats{Enriched: st.enriched.Value()}
	if st.cache != nil {
		out.Cache = st.cache.Stats()
	}
	if st.batch != nil {
		out.Batch = st.batch.Stats()
	}
	if st.breakers != nil {
		out.Resilience = st.breakers.Stats()
	}
	return out, true
}
