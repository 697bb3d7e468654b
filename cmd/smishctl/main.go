// Command smishctl runs the full smishing measurement pipeline against a
// simulated world and prints the paper's tables and figures.
//
// Usage:
//
//	smishctl [-seed N] [-messages N] [-workers N] [-step-workers N]
//	         [-extractor structured|vision|naive] [-telemetry] [-cache]
//	         [-cache-stats] [-batch] [-batch-stats] [-chaos RATE]
//	         [-shards N] [-shard-procs] [-shard-failover]
//	         [-shard-probe-interval D] [-shard-restart-max N]
//	         [-serve] [-poll-interval D] [-serve-rounds N] [-checkpoint-dir DIR]
//	         [-data-dir DIR] [-status-file FILE] [-cpuprofile FILE]
//	         [-memprofile FILE]
//
// -shards N partitions enrichment by stable key (registrable domain,
// falling back to sender ID) across N shard instances, each owning its own
// cache, batchmux windows, and circuit breakers; output is record-identical
// for any N. -shard-procs additionally runs each shard as a separate OS
// process fed over localhost (spawned from this same binary's hidden
// -shard-worker mode). -shard-failover turns on the lifecycle layer:
// shard health is probed on -shard-probe-interval, a failed shard's
// routed records are re-dispatched to survivors (output stays
// record-identical), and with -shard-procs a dead worker process is
// restarted with capped exponential backoff up to -shard-restart-max
// times.
//
// With -serve, smishctl runs as a long-lived daemon: it polls the forums
// on -poll-interval, feeds new reports through the same pipeline a batch
// run uses, and keeps the report tables current; Ctrl-C drains
// the in-flight round and prints the final report. -checkpoint-dir makes
// the collection cursors survive restarts; -data-dir makes the enriched
// dataset itself survive (cursors + record log + inject journal under one
// directory), so a killed daemon restarts without re-enriching history.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/smishkit/smishkit"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smishctl: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run holds the whole invocation so deferred cleanup (profiles, study
// teardown) executes on every exit path; log.Fatal in main would skip it.
func run() error {
	seed := flag.Int64("seed", 1, "world generation seed")
	messages := flag.Int("messages", 4000, "synthetic corpus size")
	workers := flag.Int("workers", 8, "record-level enrichment fan-out width")
	stepWorkers := flag.Int("step-workers", 4, "intra-record enrichment parallelism: independent service families run concurrently per record (1 = sequential)")
	extractor := flag.String("extractor", "structured", "screenshot extractor: structured|vision|naive")
	telemetry := flag.Bool("telemetry", false, "print per-stage spans and per-service client metrics after the report")
	cache := flag.Bool("cache", true, "coalesce and cache enrichment lookups (singleflight + TTL/LRU + negative caching)")
	cacheStats := flag.Bool("cache-stats", false, "print per-service cache hit/miss/coalesced counts after the report")
	batch := flag.Bool("batch", false, "coalesce cache misses into windowed bulk requests (HLR, passive DNS, URL scans)")
	batchStats := flag.Bool("batch-stats", false, "print per-service batching flush/coalesced counts after the report")
	chaos := flag.Float64("chaos", 0, "inject faults into this fraction of service calls (0 disables; seeded by -seed) and enable circuit breakers")
	serve := flag.Bool("serve", false, "run as a long-lived daemon: poll the forums incrementally and keep the report projection current")
	pollInterval := flag.Duration("poll-interval", 2*time.Second, "idle time between daemon collection rounds (with -serve)")
	serveRounds := flag.Int("serve-rounds", 0, "stop the daemon after N rounds (0 = run until interrupted; with -serve)")
	checkpointDir := flag.String("checkpoint-dir", "", "persist collection cursors in a JSON manifest (cursors.json) under this directory so a restarted daemon resumes where it left off (with -serve)")
	dataDir := flag.String("data-dir", "", "persist the full serving state under this directory: enriched records in a snapshot+compaction record log ('records/'), injected-wave journal, and collection cursors ('checkpoints/', unless -checkpoint-dir overrides) — a restarted daemon replays instead of re-enriching (with -serve)")
	statusFile := flag.String("status-file", "", "write the daemon's status URL to this file once it is listening, for script orchestration (with -serve)")
	liveWaves := flag.Int("live-waves", 3, "hold back this many fixture waves and release one per round, so the daemon sees reports arrive over time (with -serve)")
	shards := flag.Int("shards", 0, "partition enrichment across N key-sharded instances, each owning its own cache/batch/breaker tiers (0 = unsharded; output is record-identical for any N)")
	shardProcs := flag.Bool("shard-procs", false, "run each shard as a separate OS process fed over localhost (requires -shards)")
	shardFailover := flag.Bool("shard-failover", false, "probe shard health and re-dispatch a failed shard's records to survivors; with -shard-procs, also restart dead worker processes (requires -shards)")
	shardProbeInterval := flag.Duration("shard-probe-interval", 2*time.Second, "health-probe cadence (with -shard-failover)")
	shardRestartMax := flag.Int("shard-restart-max", 5, "restart budget per worker process (with -shard-failover -shard-procs)")
	shardWorker := flag.Bool("shard-worker", false, "internal: run as one shard worker process — spec JSON on stdin, base URL on stdout, serve until SIGTERM")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall deadline (batch mode only)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
	flag.Parse()
	if *shardWorker {
		// Worker mode is the whole process: no world, no report — just one
		// shard's stack behind a localhost listener, for a parent smishctl
		// running with -shard-procs.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return smishkit.RunShardWorker(ctx, os.Stdin, os.Stdout)
	}
	if *chaos < 0 || *chaos > 1 {
		return fmt.Errorf("-chaos %v out of range [0, 1]", *chaos)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d must not be negative", *shards)
	}
	if *shardProcs && *shards == 0 {
		return fmt.Errorf("-shard-procs requires -shards")
	}
	if *shardFailover && *shards == 0 {
		return fmt.Errorf("-shard-failover requires -shards")
	}
	if *shardProcs && *chaos > 0 {
		return fmt.Errorf("-shard-procs is incompatible with -chaos: fault injection is seeded per process, so worker-side chaos would break the sharded/unsharded output identity")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := smishkit.Options{Seed: *seed, Messages: *messages}
	if *cache {
		opts.Cache = &smishkit.CacheConfig{ServeStale: true}
	}
	if *batch {
		opts.Batch = &smishkit.BatchConfig{}
	}
	if *chaos > 0 {
		// Split the rate across fault kinds: mostly transport errors and
		// 5xx, a sliver of rate limits and hangs, plus latency spikes.
		opts.Faults = &smishkit.FaultConfig{
			Seed: *seed,
			Default: smishkit.ServiceFaults{
				ErrorRate: *chaos * 0.5,
				Rate5xx:   *chaos * 0.3,
				Rate429:   *chaos * 0.15,
				HangRate:  *chaos * 0.05,
				SlowRate:  *chaos,
				Latency:   2 * time.Millisecond,
			},
		}
		opts.Resilience = &smishkit.ResilienceConfig{
			CallTimeout:  2 * time.Second,
			RecordBudget: 30 * time.Second,
		}
	}
	opts.Pipeline.EnrichWorkers = *workers
	opts.Pipeline.StepWorkers = *stepWorkers
	if *shards > 0 {
		sc := &smishkit.ShardConfig{Shards: *shards, Failover: *shardFailover}
		if *shardFailover {
			sc.ProbeInterval = *shardProbeInterval
		}
		opts.Shards = sc
	}
	if *serve {
		opts.Service = &smishkit.ServiceConfig{
			PollInterval: *pollInterval,
			MaxRounds:    *serveRounds,
			LiveWaves:    *liveWaves,
			// OnReady fires once the status server is listening — no
			// polling needed to learn the URL.
			OnReady: func(statusURL string) {
				log.Printf("status: %s/status (telemetry at /debug/telemetry)", statusURL)
				if *statusFile != "" {
					if err := os.WriteFile(*statusFile, []byte(statusURL), 0o644); err != nil {
						log.Printf("-status-file: %v", err)
					}
				}
			},
		}
		if *checkpointDir != "" {
			store, err := smishkit.NewFileCheckpoints(*checkpointDir)
			if err != nil {
				return fmt.Errorf("-checkpoint-dir: %w", err)
			}
			opts.Service.Checkpoints = store
		}
		if *dataDir != "" {
			opts.Durability = &smishkit.DurabilityConfig{Dir: filepath.Join(*dataDir, "records")}
			// Cursors without the record log (or the reverse) would resume
			// collection but lose the dataset (or the reverse), so -data-dir
			// provides both; an explicit -checkpoint-dir still wins.
			if *checkpointDir == "" {
				store, err := smishkit.NewFileCheckpoints(filepath.Join(*dataDir, "checkpoints"))
				if err != nil {
					return fmt.Errorf("-data-dir: %w", err)
				}
				opts.Service.Checkpoints = store
			}
		}
	}
	if *dataDir != "" && !*serve {
		return fmt.Errorf("-data-dir requires -serve: the record log is written by the daemon at commit time")
	}
	switch *extractor {
	case "structured":
		opts.Pipeline.Extractor = smishkit.ExtractorStructuredVision
	case "vision":
		opts.Pipeline.Extractor = smishkit.ExtractorVisionOCR
	case "naive":
		opts.Pipeline.Extractor = smishkit.ExtractorNaiveOCR
	default:
		return fmt.Errorf("unknown extractor %q", *extractor)
	}

	start := time.Now()
	if *serve {
		opts.Service.OnRound = func(info smishkit.RoundInfo) {
			if info.Err != nil {
				log.Printf("round %d: %v", info.Round, info.Err)
				return
			}
			log.Printf("round %d: +%d reports, %d records projected", info.Round, info.NewReports, info.Records)
		}
	}
	study, err := smishkit.NewStudy(opts)
	if err != nil {
		return err
	}
	defer study.Close()
	log.Printf("world: %d messages, %d domains, %d numbers, %d short links",
		len(study.World.Messages), len(study.World.Domains),
		len(study.World.Numbers), len(study.World.Links))
	if *shardProcs {
		// Workers dial the study's simulation, so they start after it: spawn
		// this same binary N times in -shard-worker mode, read each worker's
		// URL off its stdout, and swap the study's local shards for remote
		// ones. Workers are torn down (SIGTERM, then reaped) on every exit
		// path; with -shard-failover a supervisor also restarts any that die
		// mid-run.
		stop, err := startShardWorkers(study, *shardFailover, *shardRestartMax)
		if stop != nil {
			defer stop()
		}
		if err != nil {
			return err
		}
		log.Printf("shards: %d worker processes connected", *shards)
	}

	var ds *smishkit.Dataset
	if *serve {
		// Daemon mode: run until -serve-rounds completes or Ctrl-C; the
		// shutdown drains the in-flight round before reporting.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		ds, err = study.Serve(ctx)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		ds, err = study.Run(ctx)
	}
	if err != nil {
		return err
	}
	mode := "batch"
	if *serve {
		mode = "service"
	}
	log.Printf("pipeline (%s, %d×%d workers): %d records in %v (decoys rejected: %d)",
		mode, *workers, *stepWorkers, len(ds.Records),
		time.Since(start).Round(time.Millisecond), ds.DecoysRejected)
	if *chaos > 0 {
		degraded := 0
		for _, r := range ds.Records {
			if r.Degraded() {
				degraded++
			}
		}
		log.Printf("chaos: %d of %d records degraded", degraded, len(ds.Records))
	}

	if err := smishkit.WriteReport(os.Stdout, ds); err != nil {
		return err
	}
	fmt.Println()

	// One snapshot serves every requested section.
	stats := study.Stats()
	var sections []smishkit.StatsSection
	if *telemetry {
		sections = append(sections, smishkit.SectionTelemetry)
		log.Printf("live snapshot: %s/debug/telemetry", study.Sim.DebugURL)
	}
	if *cacheStats {
		sections = append(sections, smishkit.SectionCache)
	}
	if *batchStats {
		sections = append(sections, smishkit.SectionBatch)
	}
	if *chaos > 0 {
		sections = append(sections, smishkit.SectionResilience)
	}
	if *shards > 0 {
		sections = append(sections, smishkit.SectionShards)
	}
	if *serve {
		sections = append(sections, smishkit.SectionService)
	}
	if *dataDir != "" {
		sections = append(sections, smishkit.SectionDurability)
	}
	if len(sections) > 0 {
		if err := smishkit.WriteStats(os.Stdout, stats, sections...); err != nil {
			return err
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle allocations so the heap profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

// startShardWorkers brings up one worker process per shard (this binary
// with -shard-worker) under a supervisor, connects the study to them, and
// returns a teardown function. With failover on, the supervisor also
// restarts any worker that dies mid-run (capped exponential backoff, up to
// maxRestarts attempts each) and re-registers the fresh URL with the
// study's routing group; with it off, workers are launched and reaped but
// never restarted — the original -shard-procs contract.
func startShardWorkers(study *smishkit.Study, failover bool, maxRestarts int) (stop func(), err error) {
	starter, err := processStarter(study)
	if err != nil {
		return nil, fmt.Errorf("-shard-procs: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sup, err := study.StartShardSupervisor(ctx, starter, smishkit.ShardSupervisorConfig{
		MaxRestarts: maxRestarts,
		Logf:        log.Printf,
	})
	if err != nil {
		return nil, fmt.Errorf("-shard-procs: %w", err)
	}
	if !failover {
		return sup.Stop, nil
	}
	runCtx, cancelRun := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		sup.Run(runCtx)
	}()
	return func() {
		// Teardown order matters: stop the restart loop first (and wait for
		// it), or a restart racing Stop could respawn a worker after Stop
		// reaped it.
		cancelRun()
		<-runDone
		sup.Stop()
	}, nil
}

// processStarter returns a ShardStarter that execs this same binary in
// -shard-worker mode, feeds it the study's worker spec on stdin, and reads
// its base URL off stdout. Called once per shard at bring-up and again on
// every supervised restart.
func processStarter(study *smishkit.Study) (smishkit.ShardStarter, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	return func(_ context.Context, index int) (smishkit.ShardWorkerHandle, error) {
		spec, err := json.Marshal(study.ShardWorkerSpec(index))
		if err != nil {
			return smishkit.ShardWorkerHandle{}, fmt.Errorf("marshal worker %d spec: %w", index, err)
		}
		cmd := exec.Command(exe, "-shard-worker")
		cmd.Stdin = bytes.NewReader(spec)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return smishkit.ShardWorkerHandle{}, fmt.Errorf("worker %d stdout: %w", index, err)
		}
		if err := cmd.Start(); err != nil {
			return smishkit.ShardWorkerHandle{}, fmt.Errorf("start worker %d: %w", index, err)
		}
		sc := bufio.NewScanner(out)
		if !sc.Scan() {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			_ = cmd.Wait()
			return smishkit.ShardWorkerHandle{}, fmt.Errorf("worker %d exited before reporting its URL", index)
		}
		url := sc.Text()
		exited := make(chan error, 1)
		go func() {
			for sc.Scan() { // drain so the child never blocks on a full pipe
			}
			exited <- cmd.Wait()
			close(exited)
		}()
		return smishkit.ShardWorkerHandle{
			URL:    url,
			Exited: exited,
			Stop:   func() { _ = cmd.Process.Signal(syscall.SIGTERM) },
		}, nil
	}, nil
}
