// Package smishkit is a research toolkit that reproduces "Fishing for
// Smishing: Understanding SMS Phishing Infrastructure and Strategies by
// Mining Public User Reports" (IMC 2025) as a runnable system.
//
// The toolkit has three layers:
//
//   - A synthetic world generator calibrated to the paper's published
//     distributions: smishing campaigns, sender infrastructure (phone
//     numbers, operators, spoofed IDs), and web infrastructure (domains,
//     registrars, TLS certificates, hosting ASes, URL shorteners).
//   - A simulation that boots that world as real network services on
//     loopback: five report forums (Twitter-, Reddit-, Smishtank-,
//     smishing.eu- and Pastebin-shaped), an HLR lookup service, WHOIS, a
//     CT-log search, passive DNS with IP-to-ASN, a multi-vendor URL
//     scanner with a Safe-Browsing API, URL shorteners, and the scammers'
//     own hosting (with Android drive-by downloads).
//   - The measurement pipeline from the paper: collect -> extract fields
//     from screenshots -> curate -> enrich -> annotate -> report, ending
//     in typed reproductions of the paper's Tables 1-19 and Figures 2-3.
//
// Quick start:
//
//	study, err := smishkit.NewStudy(smishkit.Options{Seed: 1, Messages: 4000})
//	if err != nil { ... }
//	defer study.Close()
//	ds, err := study.Run(ctx)
//	if err != nil { ... }
//	smishkit.WriteReport(os.Stdout, ds)
package smishkit

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/smishkit/smishkit/internal/batchmux"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/enrichcache"
	"github.com/smishkit/smishkit/internal/faultinject"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/recordlog"
	"github.com/smishkit/smishkit/internal/report"
	"github.com/smishkit/smishkit/internal/resilience"
	"github.com/smishkit/smishkit/internal/screenshot"
	"github.com/smishkit/smishkit/internal/shard"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Re-exported core types so downstream users never import internal paths.
type (
	// World is the synthetic ground truth a simulation is seeded from.
	World = corpus.World
	// WorldConfig controls world generation (seed, scale, epoch).
	WorldConfig = corpus.Config
	// Message is one ground-truth smishing message.
	Message = corpus.Message
	// Simulation is the set of booted loopback servers.
	Simulation = core.Simulation
	// Dataset is the curated, enriched, annotated record set.
	Dataset = core.Dataset
	// Record is one curated report.
	Record = core.Record
	// Services bundles enrichment clients.
	Services = core.Services
	// PipelineOptions tunes extraction and enrichment.
	PipelineOptions = core.Options
	// RawReport is one collected forum post.
	RawReport = forum.RawReport

	// Collector aggregates telemetry from a study: pipeline stage spans,
	// per-record curation outcomes, and per-service client call metrics.
	Collector = telemetry.Registry
	// Telemetry is a point-in-time snapshot of a Collector.
	Telemetry = telemetry.Snapshot
	// HistogramStats summarizes one latency histogram in a Telemetry
	// snapshot (count, min/mean/max, p50/p90/p99).
	HistogramStats = telemetry.HistogramStats
	// SpanStats summarizes one named pipeline-stage span.
	SpanStats = telemetry.SpanStats
	// ClientMetrics is the per-service instrument bundle recorded by every
	// enrichment client.
	ClientMetrics = telemetry.ClientMetrics

	// CacheConfig tunes the shared enrichment cache (Options.Cache):
	// positive/negative TTLs, the per-service LRU bound, the
	// serve-stale-on-5xx degraded mode, and per-service overrides.
	// &CacheConfig{} selects the documented defaults.
	CacheConfig = enrichcache.Config
	// CacheServiceConfig overrides the cache bounds of one service
	// (keyed "hlr", "whois", "ctlog", "dnsdb", "avscan", "shortener").
	CacheServiceConfig = enrichcache.ServiceConfig
	// CacheStats maps each enrichment service to its cache scoreboard.
	CacheStats = enrichcache.Stats
	// CacheServiceStats is one service's hit/miss/coalesced/negative/
	// stale/eviction counts plus the live entry count.
	CacheServiceStats = enrichcache.ServiceStats

	// BatchConfig tunes the windowed batching tier (Options.Batch): window
	// size, partial-window flush interval, the detached bulk-call timeout,
	// the cross-service in-flight cap, and per-service overrides.
	// &BatchConfig{} selects the documented defaults.
	BatchConfig = batchmux.Config
	// BatchServiceConfig overrides the batching bounds of one service
	// (keyed "hlr", "dnsdb", "avscan").
	BatchServiceConfig = batchmux.ServiceConfig
	// BatchStats maps each batchable service to its batching scoreboard.
	BatchStats = batchmux.Stats
	// BatchServiceStats is one service's flush/batched-keys/coalesced/
	// fallthrough counts.
	BatchServiceStats = batchmux.ServiceStats

	// FaultConfig seeds the deterministic chaos layer (Options.Faults):
	// per-service error / 429 / 5xx / hang / latency rates and flapping
	// windows, all driven by one seed so a failing run reproduces exactly.
	FaultConfig = faultinject.Config
	// ServiceFaults is the fault mix for one service (FaultConfig.Default
	// or a FaultConfig.PerService entry).
	ServiceFaults = faultinject.ServiceFaults

	// ResilienceConfig tunes the resilience layer (Options.Resilience):
	// per-service circuit breakers plus the pipeline's per-record deadline
	// budget, per-call timeout, and run-level failure-rate abort.
	// &ResilienceConfig{} selects the documented defaults.
	ResilienceConfig = resilience.Config
	// BreakerConfig tunes one circuit breaker (failure threshold, open
	// timeout, half-open probe budget).
	BreakerConfig = resilience.BreakerConfig
	// ResilienceStats maps each enrichment service to its breaker
	// scoreboard (state, opens, short-circuits, probes, outcomes).
	ResilienceStats = resilience.Stats
	// BreakerStats is one service's breaker scoreboard.
	BreakerStats = resilience.BreakerStats
	// EnrichmentError records one record field lost to a service failure
	// during a degraded (partial) enrichment.
	EnrichmentError = core.EnrichmentError

	// DurabilityConfig tunes the durable record log (Options.Durability):
	// the data directory, the snapshot refresh interval, and the log size
	// that triggers compaction. Only Dir is required.
	DurabilityConfig = recordlog.Config
	// DurabilityStats is the record log scoreboard: appends, replayed
	// records, dedup hits, snapshots, compactions, and damage counters.
	DurabilityStats = recordlog.Stats

	// ShardStats is the sharding scoreboard (Study.ShardStats,
	// Stats().Shards): routed-record totals and per-shard tier stats.
	ShardStats = shard.GroupStats
	// ShardWorkerSpec is the JSON document a shard worker process builds
	// its stack from (Study.ShardWorkerSpec emits it, RunShardWorker
	// consumes it).
	ShardWorkerSpec = shard.WorkerSpec
)

// NewCollector returns an empty telemetry collector, for sharing one
// registry across several studies or wiring external instrumentation via
// Options.Collector.
func NewCollector() *Collector { return telemetry.NewRegistry() }

// Extractor engines for PipelineOptions.Extractor, in ladder order.
var (
	// ExtractorNaiveOCR is the pytesseract-style rung: fails on custom
	// themes and confuses similar glyphs.
	ExtractorNaiveOCR screenshot.Extractor = screenshot.NaiveOCR{}
	// ExtractorVisionOCR is the Google-Vision-style rung: perfect glyphs,
	// scrambled reading order.
	ExtractorVisionOCR screenshot.Extractor = screenshot.VisionOCR{}
	// ExtractorStructuredVision is the rung the paper settled on.
	ExtractorStructuredVision screenshot.Extractor = screenshot.StructuredVision{}
)

// GenerateWorld builds a deterministic synthetic world.
func GenerateWorld(cfg WorldConfig) *World { return corpus.Generate(cfg) }

// StartSimulation boots every forum and intelligence service for a world.
func StartSimulation(w *World) (*Simulation, error) { return core.StartSimulation(w) }

// Options configures a Study end to end.
type Options struct {
	// Seed drives every random draw in world generation (default 0, a
	// valid deterministic seed).
	Seed int64
	// Messages is the synthetic corpus size (default 4000; negative is a
	// construction error).
	Messages int
	// Pipeline tunes extraction and enrichment; its zero value selects the
	// documented per-field defaults.
	Pipeline PipelineOptions
	// Collector, when non-nil, receives every metric the study produces:
	// the four pipeline stage spans (collect/curate/enrich/annotate),
	// curation outcomes, and per-service client call/error/retry/429/
	// latency instruments. When nil a private collector is created; either
	// way Study.Stats().Telemetry and the simulation's /debug/telemetry
	// endpoint observe the same registry.
	Collector *Collector
	// Cache, when non-nil, inserts the shared enrichment cache between
	// the pipeline and every service client: singleflight-coalesced
	// lookups, per-service TTL + LRU bounds, negative-result caching,
	// and (when CacheConfig.ServeStale is set) stale answers instead of
	// hard failures on upstream 5xx. Hit/miss/coalesced counters land in
	// the study's collector under "cache.<service>.*"; Study.Stats().Cache
	// reads the same numbers as a typed snapshot.
	Cache *CacheConfig
	// Batch, when non-nil, inserts the windowed batching tier between the
	// cache and the fault layer: cache misses for batchable services (HLR,
	// passive DNS, the VT aggregate, GSB status) accumulate in per-service
	// windows and flush as one bulk request on size or timer, with in-window
	// dedup and per-key error demultiplexing. Services whose client has no
	// bulk seam fall through to per-key calls, counted. Flush/batch-size/
	// coalesced/fallthrough counters land in the collector under
	// "batch.<service>.*"; Study.Stats().Batch reads the same numbers as a
	// typed snapshot.
	Batch *BatchConfig
	// Faults, when non-nil, injects deterministic faults (errors, 429/5xx
	// bursts, hangs, latency spikes, flapping windows) between the cache
	// and the real service clients — chaos testing for the pipeline's
	// degraded paths. Injections land in the collector under
	// "fault.<service>.*".
	Faults *FaultConfig
	// Resilience, when non-nil, adds per-service circuit breakers outside
	// the cache (so serve-stale still sees upstream 5xx) and applies the
	// config's record budget / call timeout / abort-threshold knobs to the
	// pipeline. Breaker state lands in the collector under
	// "breaker.<service>.*"; Study.Stats().Resilience reads the same numbers
	// as a typed snapshot.
	Resilience *ResilienceConfig
	// Service, when non-nil, configures Study.Serve — the long-running
	// daemon mode that polls the forums incrementally, maintains the report
	// projection, and exposes a status endpoint. Each round goes through the
	// same shard group a batch Run uses, so records land in curation order;
	// see ServiceConfig for the per-field defaults.
	Service *ServiceConfig
	// Durability, when non-nil, makes the served dataset survive process
	// death: every committed round's enriched records are appended to a
	// CRC-framed log under DurabilityConfig.Dir (fsynced before the
	// round's cursors commit), injected waves are journaled, and periodic
	// snapshots plus size-triggered compaction bound restart cost to one
	// snapshot + log tail. A restarted study replays the log into its
	// projection instead of re-enriching history, and replays the inject
	// journal into its fresh simulation so durable cursors stay resolvable.
	// Requires Options.Service. Metrics land in the collector under
	// "recordlog.*"; Study.Stats().Durability is the typed snapshot.
	Durability *DurabilityConfig
	// Shards, when non-nil, partitions enrichment by stable key across N
	// shard instances: records are curated once, routed by a
	// consistent-hash ring over their registrable domain (falling back to
	// sender ID, then record ID), enriched by per-shard tier stacks — each
	// shard owns its own cache, batchmux windows, and breaker set,
	// recording under "shard.<i>.*" — and scattered back into curation
	// order, so shards=1 and shards=N produce record-identical output.
	// With sharding on, the Cache/Batch/Faults/Resilience configs build
	// each shard's private tiers, and Study.Stats().Cache/Batch/Resilience
	// are nil — Stats().Shards carries the per-shard scoreboards. Without
	// it the study runs the same path as a one-shard ring whose stack
	// records on the root collector, with no prober; Stats().Shards is nil
	// and Stats().Cache/Batch/Resilience report that one stack.
	Shards *ShardConfig
}

// ShardConfig tunes Options.Shards.
type ShardConfig struct {
	// Shards is the shard count (>= 1; 1 is a valid single-shard ring,
	// useful for like-for-like comparisons against N > 1).
	Shards int
	// Replicas is the ring's virtual-node count per shard (0 selects the
	// default of 128).
	Replicas int
	// WorkerURLs, when set, makes every shard remote: element i is the
	// base URL of an already-running shard worker process (see
	// RunShardWorker). Must have exactly Shards elements. Leave empty for
	// in-process shards; Study.ConnectShardWorkers can switch a study to
	// remote workers after construction (the order cmd/smishctl needs,
	// since workers dial the study's own simulation).
	WorkerURLs []string
	// Failover turns on the shard lifecycle layer: a background prober
	// tracks each shard's health ("shard.<i>.health" gauges), and when a
	// shard's dispatch fails or its probe marks it down, its routed subset
	// is re-dispatched to surviving shards via the ring's next-alive
	// mapping. Output stays record-identical because enrichment is a pure
	// function of the routing key — only the executing stack changes. With
	// Failover off (the default), any shard failure fails the round, the
	// original contract.
	Failover bool
	// ProbeInterval is the health-probe cadence (0 selects 2s). Requires
	// Failover.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0 selects 1s). Requires
	// Failover.
	ProbeTimeout time.Duration
	// WorkerTimeout bounds one remote /enrich request (0 selects 2m). Only
	// meaningful with remote workers (WorkerURLs or ConnectShardWorkers).
	WorkerTimeout time.Duration
}

// Validate checks the options for combinations that cannot work, returning
// a descriptive error instead of deferring the blowup (or a silent clamp)
// to run time. NewStudy calls it first; callers building Options
// programmatically can call it directly.
func (o Options) Validate() error {
	if o.Messages < 0 {
		return fmt.Errorf("smishkit: Messages must not be negative (got %d)", o.Messages)
	}
	p := o.Pipeline
	if p.EnrichWorkers < 0 {
		return fmt.Errorf("smishkit: Pipeline.EnrichWorkers must not be negative (got %d)", p.EnrichWorkers)
	}
	if p.StepWorkers < 0 {
		return fmt.Errorf("smishkit: Pipeline.StepWorkers must not be negative (got %d)", p.StepWorkers)
	}
	if p.StageWorkers < 0 {
		return fmt.Errorf("smishkit: Pipeline.StageWorkers must not be negative (got %d)", p.StageWorkers)
	}
	if s := o.Service; s != nil {
		if s.PollInterval < 0 {
			return fmt.Errorf("smishkit: Service.PollInterval must not be negative (got %v)", s.PollInterval)
		}
		if s.DrainTimeout < 0 {
			return fmt.Errorf("smishkit: Service.DrainTimeout must not be negative (got %v)", s.DrainTimeout)
		}
		if s.MaxRounds < 0 {
			return fmt.Errorf("smishkit: Service.MaxRounds must not be negative (got %d)", s.MaxRounds)
		}
		if s.LiveWaves < 0 {
			return fmt.Errorf("smishkit: Service.LiveWaves must not be negative (got %d)", s.LiveWaves)
		}
		if s.ProjectionQueue < 0 {
			return fmt.Errorf("smishkit: Service.ProjectionQueue must not be negative (got %d)", s.ProjectionQueue)
		}
		if s.InitialShare < 0 || s.InitialShare > 1 {
			return fmt.Errorf("smishkit: Service.InitialShare must be in [0,1] (got %v; 0 selects the default of 0.5)", s.InitialShare)
		}
	}
	if sh := o.Shards; sh != nil {
		if sh.Shards < 1 {
			return fmt.Errorf("smishkit: Shards.Shards must be at least 1 (got %d)", sh.Shards)
		}
		if sh.Replicas < 0 {
			return fmt.Errorf("smishkit: Shards.Replicas must not be negative (got %d; 0 selects the default)", sh.Replicas)
		}
		if len(sh.WorkerURLs) > 0 && len(sh.WorkerURLs) != sh.Shards {
			return fmt.Errorf("smishkit: Shards.WorkerURLs has %d entries for %d shards — every shard is remote or none is", len(sh.WorkerURLs), sh.Shards)
		}
		if sh.ProbeInterval < 0 {
			return fmt.Errorf("smishkit: Shards.ProbeInterval must not be negative (got %v; 0 selects the default)", sh.ProbeInterval)
		}
		if sh.ProbeTimeout < 0 {
			return fmt.Errorf("smishkit: Shards.ProbeTimeout must not be negative (got %v; 0 selects the default)", sh.ProbeTimeout)
		}
		if sh.WorkerTimeout < 0 {
			return fmt.Errorf("smishkit: Shards.WorkerTimeout must not be negative (got %v; 0 selects the default)", sh.WorkerTimeout)
		}
		if !sh.Failover && (sh.ProbeInterval > 0 || sh.ProbeTimeout > 0) {
			return fmt.Errorf("smishkit: Shards.ProbeInterval/ProbeTimeout are set but Shards.Failover is off — the prober only runs in failover mode")
		}
	}
	if d := o.Durability; d != nil {
		if o.Service == nil {
			return fmt.Errorf("smishkit: Options.Durability is set but Options.Service is nil — the record log is written by Serve at commit time")
		}
		if d.Dir == "" {
			return fmt.Errorf("smishkit: Durability.Dir must not be empty")
		}
		if d.SnapshotInterval < 0 {
			return fmt.Errorf("smishkit: Durability.SnapshotInterval must not be negative (got %v; 0 selects the default)", d.SnapshotInterval)
		}
		if d.CompactThreshold < 0 {
			return fmt.Errorf("smishkit: Durability.CompactThreshold must not be negative (got %d; 0 selects the default)", d.CompactThreshold)
		}
	}
	return nil
}

// Study bundles a world, its simulation, and the pipeline — the one-stop
// entry point for reproducing the paper.
type Study struct {
	World *World
	Sim   *Simulation
	// Pipe is the front pipeline: it curates each batch and records on the
	// study's collector. It runs over the bare service clients; enrichment
	// goes through the shard stacks and their tiers.
	Pipe *core.Pipeline

	rlog  *recordlog.Log // nil when Options.Durability was nil
	group *shard.Group   // one shard when Options.Shards was nil

	proberStop context.CancelFunc // stops the health-probe loop (nil without Shards.Failover)

	opts Options     // the validated options the study was built from
	svc  *serveState // live Serve state (nil until Serve runs)
}

// NewStudy generates a world and boots its simulation. On any failure
// after the simulation has bound its listeners — pipeline construction
// included — the simulation is closed before returning, so a non-nil error
// never leaks sockets.
func NewStudy(opts Options) (*Study, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	reg := opts.Collector
	if reg == nil {
		reg = NewCollector()
	}
	// The record log opens before the simulation boots: its replayed state
	// decides the holdback question below, and its inject journal must be
	// replayed into the fresh servers before any collector runs.
	var rlog *recordlog.Log
	if opts.Durability != nil {
		var err error
		if rlog, err = recordlog.Open(*opts.Durability, reg); err != nil {
			return nil, fmt.Errorf("smishkit: open record log: %w", err)
		}
	}
	w := corpus.Generate(corpus.Config{Seed: opts.Seed, Messages: opts.Messages})
	var simCfg core.SimConfig
	if opts.Service != nil {
		simCfg.HoldbackWaves = opts.Service.LiveWaves
		simCfg.InitialShare = opts.Service.InitialShare
		// A daemon resuming from committed cursors restarts into a world
		// whose held-back posts were already published before it went down;
		// re-staging them as future waves would make the forums appear to
		// republish content the cursors have consumed. Seed everything up
		// front instead so a restarted daemon collects nothing twice. The
		// same applies when the record log carries prior state: its inject
		// journal is replayed below, and holdback waves released after
		// injections would land on the injection timeline in a different
		// order than the original run observed them.
		if st := opts.Service.Checkpoints; st != nil {
			if all, err := st.All(); err == nil && len(all) > 0 {
				simCfg.HoldbackWaves = 0
			}
		}
		if rlog != nil {
			if rst := rlog.Stats(); rst.Records > 0 || rst.Injects > 0 {
				simCfg.HoldbackWaves = 0
			}
		}
	}
	sim, err := core.StartSimulationCfg(w, reg, simCfg)
	if err != nil {
		cerr := closeLog(rlog)
		return nil, errors.Join(fmt.Errorf("smishkit: start simulation: %w", err), cerr)
	}
	// Replay journaled injections so the fresh forum servers regain every
	// post the durable cursors already point past. Injection is
	// deterministic given the spec sequence, so the replayed posts carry
	// the same namespaced IDs the original run committed.
	for i, spec := range rlogInjects(rlog) {
		if _, err := sim.Inject(spec); err != nil {
			cerr := errors.Join(sim.Close(), closeLog(rlog))
			return nil, errors.Join(fmt.Errorf("smishkit: replay injection %d: %w", i+1, err), cerr)
		}
	}
	// Every study processes a round through a shard Group: the front
	// pipeline curates the batch (it never enriches), the group routes the
	// records across the shard stacks, and their output is scattered back
	// into curation order. Each stack composes its own tiers around the
	// shared instrumented base clients (see shard.NewStack), so the global
	// "client.<svc>.*" counters still measure real upstream traffic. An
	// unsharded study is a group of one stack recording on the root
	// registry, which keeps its cache.*, batch.*, breaker.*, fault.* and
	// pipeline.* instruments under their own names; a sharded study's
	// stacks record under "shard.<i>.*".
	fail := func(err error) (*Study, error) {
		return nil, errors.Join(err, sim.Close(), closeLog(rlog))
	}
	base := sim.Services()
	fopts := opts.Pipeline
	fopts.Telemetry = reg
	pipe, err := core.NewPipeline(base, fopts)
	if err != nil {
		return fail(fmt.Errorf("smishkit: build pipeline: %w", err))
	}
	sh := opts.Shards
	if sh == nil {
		sh = &ShardConfig{Shards: 1}
	}
	enrichers := make([]shard.Enricher, sh.Shards)
	for i := range enrichers {
		if len(sh.WorkerURLs) > 0 {
			enrichers[i] = shard.NewRemoteEnricher(sh.WorkerURLs[i]).WithTimeout(sh.WorkerTimeout)
			continue
		}
		stackReg := reg
		if opts.Shards != nil {
			stackReg = reg.Prefixed(fmt.Sprintf("shard.%d.", i))
		}
		stack, err := shard.NewStack(base, shard.StackConfig{
			Faults:     opts.Faults,
			Batch:      opts.Batch,
			Cache:      opts.Cache,
			Resilience: opts.Resilience,
			Pipeline:   opts.Pipeline,
		}, stackReg)
		if err != nil {
			return fail(fmt.Errorf("smishkit: build shard %d: %w", i, err))
		}
		enrichers[i] = stack
	}
	group, err := shard.NewGroup(pipe, enrichers, sh.Replicas, reg)
	if err != nil {
		return fail(fmt.Errorf("smishkit: build shard group: %w", err))
	}
	if len(sh.WorkerURLs) > 0 {
		if err := group.SetEnrichers(enrichers, true); err != nil {
			return fail(err)
		}
	}
	st := &Study{World: w, Sim: sim, Pipe: pipe, group: group, rlog: rlog, opts: opts}
	if sh.Failover {
		prober := shard.NewProber(sh.Shards, shard.ProbeConfig{
			Interval: sh.ProbeInterval,
			Timeout:  sh.ProbeTimeout,
		}, reg)
		group.AttachProber(prober)
		pctx, cancel := context.WithCancel(context.Background())
		st.proberStop = cancel
		go prober.Run(pctx)
	}
	return st, nil
}

// closeLog closes a possibly-nil record log.
func closeLog(l *recordlog.Log) error {
	if l == nil {
		return nil
	}
	return l.Close()
}

// rlogInjects returns a possibly-nil log's inject journal.
func rlogInjects(l *recordlog.Log) []core.InjectSpec {
	if l == nil {
		return nil
	}
	return l.Injects()
}

// Collect drains all five forums.
func (s *Study) Collect(ctx context.Context) ([]RawReport, error) {
	sp := s.Pipe.Telemetry().StartSpan("collect")
	defer sp.End()
	reports, _, err := forum.CollectAll(ctx, s.Sim.Collectors())
	if err == nil {
		s.Pipe.Telemetry().Counter("pipeline.collect.reports").Add(int64(len(reports)))
	}
	return reports, err
}

// Run collects, curates, enriches, and annotates: one round through the
// study's shard group, so records come back in curation order for any
// shard count. On error the dataset is nil.
func (s *Study) Run(ctx context.Context) (*Dataset, error) {
	reports, err := s.Collect(ctx)
	if err != nil {
		return nil, err
	}
	return s.group.Run(ctx, reports)
}

// ShardStats reports the sharding scoreboard: per-shard routed-record
// totals plus each shard's cache/batch/breaker stats. Returns nil when the
// study was built without Options.Shards. Safe to call concurrently with
// Run or Serve.
func (s *Study) ShardStats() *ShardStats {
	if s.opts.Shards == nil {
		return nil
	}
	st := s.group.Stats()
	return &st
}

// ShardWorkerSpec builds the spec a shard worker process for this study
// needs: the study's own simulated service addresses plus the pipeline and
// tier flags mirroring the study's Options, with the enrichment budgets
// resolved as an in-process stack resolves them (shard.ResolveBudgets).
// Write its JSON to the worker's
// stdin (see RunShardWorker). Index is the shard the worker will serve.
// Faults are deliberately absent: the chaos layer is seeded per process,
// so injecting it in workers would break the shards=1 vs shards=N
// record-identity contract.
func (s *Study) ShardWorkerSpec(index int) ShardWorkerSpec {
	p := shard.ResolveBudgets(s.opts.Pipeline, s.opts.Resilience)
	spec := ShardWorkerSpec{
		Index:     index,
		HLR:       shard.ServiceAddr{URL: s.Sim.HLRURL, Key: s.Sim.HLRKey},
		Whois:     shard.ServiceAddr{URL: s.Sim.WhoisURL, Key: s.Sim.WhoisKey},
		CTLog:     shard.ServiceAddr{URL: s.Sim.CTLogURL},
		DNSDB:     shard.ServiceAddr{URL: s.Sim.DNSDBURL, Key: s.Sim.DNSDBKey},
		AVScan:    shard.ServiceAddr{URL: s.Sim.AVScanURL, Key: s.Sim.AVScanKey},
		Shortener: shard.ServiceAddr{URL: s.Sim.ShortenerURL},
		Pipeline: shard.WorkerPipeline{
			EnrichWorkers:    p.EnrichWorkers,
			StepWorkers:      p.StepWorkers,
			RecordBudget:     p.RecordBudget,
			CallTimeout:      p.CallTimeout,
			AbortFailureRate: p.AbortFailureRate,
			MinAbortCalls:    p.MinAbortCalls,
		},
		Cache:      s.opts.Cache != nil,
		Batch:      s.opts.Batch != nil,
		Resilience: s.opts.Resilience != nil,
	}
	if c := s.opts.Cache; c != nil {
		spec.ServeStale = c.ServeStale
	}
	return spec
}

// ConnectShardWorkers switches a sharded study to remote shard workers:
// urls[i] is the base URL worker i printed on startup (one per shard).
// Each worker is health-checked before the swap; on any failure the study
// keeps its current (local) shards. This is the multi-process bring-up
// order cmd/smishctl uses — the study must exist first, because workers
// dial its simulation.
func (s *Study) ConnectShardWorkers(ctx context.Context, urls []string) error {
	if s.opts.Shards == nil {
		return fmt.Errorf("smishkit: ConnectShardWorkers needs Options.Shards")
	}
	if len(urls) != s.group.Shards() {
		return fmt.Errorf("smishkit: study has %d shards, got %d worker URLs", s.group.Shards(), len(urls))
	}
	enrichers := make([]shard.Enricher, len(urls))
	for i, u := range urls {
		re := shard.NewRemoteEnricher(u).WithTimeout(s.workerTimeout())
		if err := re.Healthy(ctx); err != nil {
			return fmt.Errorf("smishkit: shard worker %d: %w", i, err)
		}
		enrichers[i] = re
	}
	return s.group.SetEnrichers(enrichers, true)
}

// workerTimeout returns the configured per-request worker timeout (0 when
// the study is unsharded — NewRemoteEnricher's default applies).
func (s *Study) workerTimeout() time.Duration {
	if sh := s.opts.Shards; sh != nil {
		return sh.WorkerTimeout
	}
	return 0
}

// RunShardWorker runs one shard worker process end to end: decode a
// ShardWorkerSpec (JSON) from r, serve the shard on an ephemeral loopback
// port, print the base URL as a single line to w, and block until ctx is
// cancelled. cmd/smishctl's hidden -shard-worker mode is exactly this
// call over stdin/stdout.
func RunShardWorker(ctx context.Context, r io.Reader, w io.Writer) error {
	return shard.RunWorker(ctx, r, w)
}

// Shard lifecycle re-exports, so supervisor callers (cmd/smishctl, tests)
// never import internal paths.
type (
	// ShardWorkerHandle is one running shard worker as the supervisor sees
	// it: its URL, an exit channel, and a stop function.
	ShardWorkerHandle = shard.WorkerHandle
	// ShardStarter launches (or re-launches) worker index and returns its
	// handle — an OS process for cmd/smishctl, a goroutine in tests.
	ShardStarter = shard.Starter
	// ShardSupervisorConfig tunes restart backoff and budget.
	ShardSupervisorConfig = shard.SupervisorConfig
	// ShardSupervisor keeps shard workers alive, restarting the dead with
	// capped exponential backoff.
	ShardSupervisor = shard.Supervisor
)

// StartShardSupervisor brings up one worker per shard through start,
// connects the study to them, and returns a supervisor wired so that every
// restarted worker is health-checked and swapped back into the routing
// group (with ShardStats().PerShard[i].Restarts counting the swap). The
// caller owns the supervisor's lifecycle: run `go sup.Run(ctx)` to enable
// restarts, then on teardown cancel that ctx and call sup.Stop(). Requires
// a sharded study; any OnRestart already set in cfg runs after the study's
// own re-registration.
func (s *Study) StartShardSupervisor(ctx context.Context, start ShardStarter, cfg ShardSupervisorConfig) (*ShardSupervisor, error) {
	if s.opts.Shards == nil {
		return nil, fmt.Errorf("smishkit: StartShardSupervisor needs Options.Shards")
	}
	chain := cfg.OnRestart
	cfg.OnRestart = func(index int, url string) error {
		re := shard.NewRemoteEnricher(url).WithTimeout(s.workerTimeout())
		hctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := re.Healthy(hctx)
		cancel()
		if err != nil {
			return fmt.Errorf("smishkit: restarted shard worker %d: %w", index, err)
		}
		if err := s.group.SetEnricher(index, re, true); err != nil {
			return err
		}
		s.group.NoteRestart(index)
		if chain != nil {
			return chain(index, url)
		}
		return nil
	}
	sup, err := shard.NewSupervisor(s.group.Shards(), start, cfg)
	if err != nil {
		return nil, err
	}
	urls, err := sup.Start(ctx)
	if err != nil {
		return nil, err
	}
	if err := s.ConnectShardWorkers(ctx, urls); err != nil {
		sup.Stop()
		return nil, err
	}
	return sup, nil
}

// Close shuts the simulation down, releases every loopback listener, and
// closes the record log (writing its final snapshot) when the study has
// one. It is idempotent — only the first call closes; every call reports
// that close's (joined) error. After Close the study's servers are gone,
// so Collect and Run fail, but World, datasets already produced, and
// Telemetry snapshots remain valid.
func (s *Study) Close() error {
	if s.Sim == nil {
		return nil
	}
	if s.proberStop != nil {
		s.proberStop()
	}
	return errors.Join(s.Sim.Close(), closeLog(s.rlog))
}

// WriteReport renders every table and figure of the paper to w, returning
// the first write error (earlier versions swallowed it).
func WriteReport(w io.Writer, ds *Dataset) error { return report.RenderAll(w, ds) }
