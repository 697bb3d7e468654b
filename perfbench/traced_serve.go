package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smishkit/smishkit/internal/checkpoint"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/recordlog"
	"github.com/smishkit/smishkit/internal/report"
	"github.com/smishkit/smishkit/internal/screenshot"
	"github.com/smishkit/smishkit/internal/shard"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// The traced serve run steps through the daemon's round (Study.Serve in
// service.go) from benchmark code, calling each layer's own functions:
// CollectSince per forum, the streaming Pipeline.Run or shard.Group.Run,
// recordlog Append, Projection Submit, and FileStore Save per forum. It
// builds the same tiers, in the same order, as the facade, with a timing
// shim between each pair, and offers the same load as the untraced run.

// tracedTiers composes the enrichment tiers in NewStudy's order (client <-
// batchmux <- cache <- breaker <- pipeline) with a shim above each tier.
func tracedTiers(base core.Services, tr *tracer, reg *telemetry.Registry) core.Services {
	s := timeServices(base, tr, "upstream")
	s = newBatch(reg).WrapServices(s)
	s = timeServices(s, tr, "batch")
	s = newCache(reg).WrapServices(s)
	s = timeServices(s, tr, "cache")
	s = newBreakers(reg).WrapServices(s)
	return timeServices(s, tr, "breaker")
}

// tracedStack is one shard's enrich+annotate step, as shard.Stack runs it,
// over traced tiers. shard.NewStack composes its tiers internally, with no
// seam to time between them, so the traced run composes them itself.
type tracedStack struct {
	pipe *core.Pipeline
	tr   *tracer
}

func (s *tracedStack) EnrichAnnotate(ctx context.Context, recs []core.Record) ([]core.Record, error) {
	if len(recs) == 0 {
		return recs, nil
	}
	ds := &core.Dataset{Records: recs}
	start := time.Now()
	if err := s.pipe.Enrich(ctx, ds); err != nil {
		return nil, err
	}
	s.tr.call(ctx, "enrich", start)
	start = time.Now()
	if err := s.pipe.Annotate(ctx, ds); err != nil {
		return nil, err
	}
	s.tr.call(ctx, "annotate", start)
	return ds.Records, nil
}

// tracedDaemon is a serve daemon assembled from its layers.
type tracedDaemon struct {
	tr         *tracer
	reg        *telemetry.Registry
	sim        *core.Simulation
	rlog       *recordlog.Log
	store      *checkpoint.FileStore
	proj       *report.Projection
	collectors []forum.IncrementalCollector
	cursors    map[string]checkpoint.Cursor
	process    func(context.Context, []forum.RawReport) (*core.Dataset, error)
	group      *shard.Group
	stopProber context.CancelFunc

	// Collection and commit tallies, touched only by the round loop.
	seen        map[string]bool
	polls       int
	emptyPolls  int
	raw         int
	dups        int
	appendBytes int64
	appended    int
	emptyRounds int
	backlogMax  float64

	// Projection apply latency: each submit's time goes to an observer that
	// waits for the merge.
	submits chan time.Time
	applyMu sync.Mutex
	applyMS []float64
	obsDone chan struct{}
}

func bootTraced(seed int64, sc scale, dir string, tr *tracer) (*tracedDaemon, error) {
	d := &tracedDaemon{
		tr:      tr,
		reg:     telemetry.NewRegistry(),
		cursors: map[string]checkpoint.Cursor{},
		seen:    map[string]bool{},
		// Sized past the submits of any run, so the round loop never
		// waits for the observer.
		submits: make(chan time.Time, 1<<16),
		obsDone: make(chan struct{}),
	}
	setup := tr.begin("setup", -1, -1)
	defer tr.end(setup)
	var err error
	id := tr.begin("setup.recordlog_open", setup, -1)
	d.rlog, err = recordlog.Open(recordlog.Config{
		Dir:              filepath.Join(dir, "records"),
		SnapshotInterval: quietSnapshots,
		CompactThreshold: quietCompaction,
	}, d.reg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("setup.world", setup, -1)
	w := corpus.Generate(corpus.Config{Seed: seed, Messages: sc.Messages})
	tr.end(id)
	id = tr.begin("setup.sim", setup, -1)
	d.sim, err = core.StartSimulationCfg(w, d.reg, core.SimConfig{})
	tr.end(id)
	if err != nil {
		_ = d.rlog.Close()
		return nil, err
	}
	fail := func(err error) (*tracedDaemon, error) {
		d.close()
		return nil, err
	}
	if d.store, err = checkpoint.NewFileStore(filepath.Join(dir, "checkpoints")); err != nil {
		return fail(err)
	}
	for _, c := range d.sim.Collectors() {
		ic, ok := c.(forum.IncrementalCollector)
		if !ok {
			return fail(fmt.Errorf("collector %s is not incremental", c.Name()))
		}
		d.collectors = append(d.collectors, ic)
	}
	popts := core.Options{
		Streaming: true,
		Telemetry: d.reg,
		Extractor: &timedExtractor{next: screenshot.StructuredVision{}, tr: tr},
	}
	if sc.Shards == 0 {
		pipe, err := core.NewPipeline(tracedTiers(d.sim.Services(), tr, d.reg), popts)
		if err != nil {
			return fail(err)
		}
		d.process = pipe.Run
	} else {
		front, err := core.NewPipeline(d.sim.Services(), popts)
		if err != nil {
			return fail(err)
		}
		// Every shard records into one "shards." view, so a figure reads
		// as the sum (or merged histogram) over shards.
		stackReg := d.reg.Prefixed("shards.")
		enrichers := make([]shard.Enricher, sc.Shards)
		for i := range enrichers {
			pipe, err := core.NewPipeline(tracedTiers(d.sim.Services(), tr, stackReg), core.Options{Telemetry: stackReg})
			if err != nil {
				return fail(err)
			}
			enrichers[i] = &timedEnricher{next: &tracedStack{pipe: pipe, tr: tr}, tr: tr, name: fmt.Sprintf("shard.%d", i)}
		}
		if d.group, err = shard.NewGroup(front, enrichers, 0, d.reg); err != nil {
			return fail(err)
		}
		prober := shard.NewProber(sc.Shards, shard.ProbeConfig{}, d.reg)
		d.group.AttachProber(prober)
		pctx, cancel := context.WithCancel(context.Background())
		d.stopProber = cancel
		go prober.Run(pctx)
		d.process = d.group.Run
	}
	d.proj = report.NewProjection(d.reg, 0)
	go d.observeApply()
	return d, nil
}

// observeApply measures, for each submitted batch, the time until the
// projection has merged everything submitted so far.
func (d *tracedDaemon) observeApply() {
	defer close(d.obsDone)
	for at := range d.submits {
		if err := d.proj.Wait(context.Background()); err != nil {
			continue
		}
		d.applyMu.Lock()
		d.applyMS = append(d.applyMS, ms(time.Since(at)))
		d.applyMu.Unlock()
	}
}

func (d *tracedDaemon) close() {
	if d.stopProber != nil {
		d.stopProber()
	}
	if d.proj != nil {
		close(d.submits)
		<-d.obsDone
		d.proj.Close()
	}
	_ = d.sim.Close()
	_ = d.rlog.Close()
}

// roundOutcome is what the round loop tells its observer.
type roundOutcome struct {
	newReports int
	err        error
}

// round runs one serve round: collect every forum, process the batch,
// append it to the record log, submit it to the projection, and save every
// forum's cursor.
func (d *tracedDaemon) round(ctx context.Context, r int32) roundOutcome {
	rid := d.tr.begin("round", -1, r)
	defer d.tr.end(rid)
	var out roundOutcome
	var batch []forum.RawReport
	staged := make(map[string]checkpoint.Cursor, len(d.collectors))
	for i, ic := range d.collectors {
		src := forum.Sources[i]
		var stage []forum.RawReport
		id := d.tr.begin("forum.collect."+src, rid, r)
		next, err := ic.CollectSince(ctx, d.cursors[src], func(rep forum.RawReport) error {
			stage = append(stage, rep)
			return nil
		})
		d.tr.end(id)
		d.polls++
		if err != nil {
			if out.err == nil {
				out.err = err
			}
			continue
		}
		if len(stage) == 0 {
			d.emptyPolls++
		}
		for _, rep := range stage {
			if d.seen[rep.PostID] {
				d.dups++
			}
			d.seen[rep.PostID] = true
		}
		d.raw += len(stage)
		batch = append(batch, stage...)
		staged[src] = next
	}
	if ctx.Err() != nil {
		out.err = ctx.Err()
		return out
	}
	collectedAt := time.Now()
	pctx := context.WithoutCancel(ctx)
	committed := true
	if len(batch) > 0 {
		id := d.tr.begin("process", rid, r)
		ds, err := d.process(withSpan(pctx, id, r), batch)
		d.tr.end(id)
		if err == nil {
			before := d.rlog.Stats().LogBytes
			id = d.tr.begin("recordlog.append", rid, r)
			ds, err = d.rlog.Append(ds, collectedAt)
			d.tr.end(id)
			if err == nil {
				if after := d.rlog.Stats().LogBytes; after >= before {
					d.appendBytes += after - before
					d.appended += len(ds.Records)
				}
			}
		}
		if err == nil {
			id = d.tr.begin("projection.submit", rid, r)
			err = d.proj.Submit(pctx, ds, collectedAt)
			d.tr.end(id)
			if err == nil {
				d.submits <- time.Now()
			}
		}
		if err != nil {
			committed = false
			out.err = err
		}
	}
	if committed {
		out.newReports = len(batch)
		for _, src := range forum.Sources {
			cur, ok := staged[src]
			if !ok {
				continue
			}
			id := d.tr.begin("checkpoint.save", rid, r)
			err := d.store.Save(cur)
			d.tr.end(id)
			if err != nil {
				if out.err == nil {
					out.err = err
				}
				continue
			}
			d.cursors[src] = cur
		}
	}
	if out.newReports == 0 {
		d.emptyRounds++
	}
	if ps := d.proj.Stats(); ps.BacklogSeconds > d.backlogMax {
		d.backlogMax = ps.BacklogSeconds
	}
	return out
}

// loopTallies is the round loop's counters at one instant.
type loopTallies struct {
	polls, emptyPolls, raw, dups, appended, emptyRounds int
	appendBytes                                         int64
}

func (d *tracedDaemon) tallies() loopTallies {
	return loopTallies{d.polls, d.emptyPolls, d.raw, d.dups, d.appended, d.emptyRounds, d.appendBytes}
}

func tracedServe(cfg runConfig) *result {
	rep := newResult()
	sc := cfg.scale
	tr := newTracer()
	dir := filepath.Join(cfg.dataDir, "traced")
	d, err := bootTraced(cfg.seed, sc, dir, tr)
	if err != nil {
		rep.check("traced daemon boots", false, err.Error())
		return rep
	}
	defer os.RemoveAll(dir)
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	catchup := d.round(ctx, 1)
	if catchup.err != nil {
		rep.check("catch-up round", false, catchup.err.Error())
		return rep
	}
	base := d.rlog.Stats().Records
	runtime.GC()
	plan := planWaves(cfg, base, time.Now().Add(10*time.Millisecond))
	want := base + plan.total()
	var roundErrs atomic.Int64
	start := tr.at(plan.t0)

	// The round loop takes the measured phase's starting tallies itself, at
	// its first round after t0, so they need no lock.
	var tal0 loopTallies
	loopCtx, stopLoop := context.WithCancel(ctx)
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		marked := false
		for r := int32(2); loopCtx.Err() == nil; r++ {
			if !marked && !time.Now().Before(plan.t0) {
				tal0, marked = d.tallies(), true
			}
			out := d.round(loopCtx, r)
			if loopCtx.Err() != nil {
				return
			}
			if out.err != nil {
				roundErrs.Add(1)
			}
			plan.det.round(out.newReports, time.Now(), func() int { return d.rlog.Stats().Records })
			id := tr.begin("idle", -1, r)
			select {
			case <-loopCtx.Done():
			case <-time.After(sc.PollInterval):
			}
			tr.end(id)
		}
	}()

	var wg sync.WaitGroup
	var late []float64
	var injectErrs atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		// As Study.InjectWave: journal the spec, then inject it.
		late = plan.generate(ctx, func(seed int64, msgs int) error {
			spec := core.InjectSpec{Seed: seed, Messages: msgs}
			if err := d.rlog.AppendInject(spec, time.Now()); err != nil {
				return err
			}
			_, err := d.sim.Inject(spec)
			return err
		}, &injectErrs)
	}()
	var queryLat []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		runOpenLoop(ctx, realClock{}, queryDues(cfg, plan.t0), func(_ int, due time.Time) {
			st := time.Now()
			_ = d.proj.Query().Summarize(report.DefaultSummaryTop)
			tr.call(ctx, "query.summarize", st)
			queryLat = append(queryLat, ms(time.Since(due)))
		})
	}()
	realClock{}.SleepUntil(ctx, plan.t0)
	snap0 := d.reg.Snapshot()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()

	select {
	case <-plan.det.done:
	case <-time.After(time.Until(plan.t0.Add(cfg.measure + drainTimeout))):
	}
	_, committed, endT := plan.fresh()
	nWaves := plan.measured()
	end := tr.at(endT)
	cpu1 := cpuTime()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	snap1 := d.reg.Snapshot()
	stopLoop()
	<-loopDone
	tal1 := d.tallies()
	wg.Wait()
	id := tr.begin("drain", -1, -1)
	werr := d.proj.Wait(ctx)
	if werr == nil {
		werr = d.rlog.Snapshot()
	}
	tr.end(id)
	sum := d.proj.Query().Summarize(report.DefaultSummaryTop)
	durable := d.rlog.Stats().Records
	var groupStats shard.GroupStats
	if d.group != nil {
		groupStats = d.group.Stats()
	}
	closed = true
	d.close()

	rep.check("every wave commits exactly once", committed == nWaves, fmt.Sprintf("%d of %d waves committed", committed, nWaves))
	rep.check("durable records = initial + wave messages", durable == want, fmt.Sprintf("durable %d, want %d", durable, want))
	rep.check("summary total agrees after drain", sum.Records == want, fmt.Sprintf("summary %d, want %d", sum.Records, want))
	rep.check("drain", werr == nil, errOrNil(werr))
	buf, _ := json.Marshal(sum)
	rep.output = string(buf)
	records := committed * plan.msgs
	rep.attempted = nWaves + len(queryLat) + tr.countNamed("round")
	rep.failed = nWaves - committed + int(roundErrs.Load()) + int(injectErrs.Load()) +
		int(counterSum(snap1, "pipeline.enrich.degraded_records"))
	if records > 0 {
		rep.cpuPer1k = (cpu1 - cpu0).Seconds() / float64(records) * 1000
	}

	ss := spanSet(tr.snapshot())
	wall := time.Duration(end - start)
	setupSpans := ss.named("setup", 0, start)
	rep.set("setup.world_s", "s", setupSpans.named("setup.world", 0, start).total().Seconds())
	rep.set("setup.sim_s", "s", setupSpans.named("setup.sim", 0, start).total().Seconds())
	rounds := ss.named("round", 0, end+1)
	if len(rounds) > 0 {
		rep.set("setup.catchup_s", "s", rounds[0].dur().Seconds())
	}
	win := ss.window(start, end)

	dt := tal1.sub(tal0)
	rep.set("forum.collect_s", "s", win.named("forum.collect", start, end).total().Seconds())
	rep.set("forum.reports", "count", float64(dt.raw))
	rep.setLayerPct("forum.poll_p50_ms", win.named("forum.collect", start, end).ms(), 0.5)
	if dt.raw > 0 {
		rep.set("forum.dup_per_1k", "1/1k", float64(dt.dups)/float64(dt.raw)*1000)
	}
	if dt.polls > 0 {
		rep.set("forum.empty_poll_share", "share", float64(dt.emptyPolls)/float64(dt.polls))
	}
	curateMetrics(rep, win, snap0, snap1, dt.raw)
	enrichMetrics(rep, win, snap0, snap1)
	if d.group != nil {
		rep.set("annotate.busy_s", "s", win.named("annotate", start, end).covered().Seconds())
		shardMetrics(rep, win, groupStats, sc.Shards)
	} else {
		rep.setAbsent("annotate.busy_s", "the streaming pipeline annotates inside each enrichment worker")
		for _, m := range shardMetricNames {
			rep.setAbsent(m, "unsharded")
		}
	}
	tierMetrics(rep, win, snap0, snap1)

	appends := win.named("recordlog.append", start, end)
	rep.setLayerPct("recordlog.append_p50_ms", appends.ms(), 0.5)
	rep.setLayerPct("recordlog.append_p95_ms", appends.ms(), 0.95)
	if dt.appended > 0 {
		rep.set("recordlog.bytes_per_record", "B", float64(dt.appendBytes)/float64(dt.appended))
	}
	rep.set("recordlog.dedup_dropped", "count", float64(snap1.CounterValue("recordlog.deduped")-snap0.CounterValue("recordlog.deduped")))

	mrounds := win.named("round", start, end)
	saves := win.named("checkpoint.save", start, end)
	rep.setLayerPct("checkpoint.save_p50_ms", saves.ms(), 0.5)
	if len(mrounds) > 0 {
		rep.set("checkpoint.saves_per_round", "count", float64(len(saves))/float64(len(mrounds)))
	}

	d.applyMu.Lock()
	rep.setLayerPct("projection.apply_p50_ms", d.applyMS, 0.5)
	d.applyMu.Unlock()
	rep.set("projection.backlog_max_s", "s", d.backlogMax)
	rep.setLayerPct("query.summarize_p50_ms", win.named("query.summarize", start, end).ms(), 0.5)
	rep.setAbsent("report.render_s", "the daemon renders no report")

	rep.set("round.count", "count", float64(len(mrounds)))
	rep.setLayerPct("round.p50_ms", mrounds.ms(), 0.5)
	rep.setLayerPct("round.p95_ms", mrounds.ms(), 0.95)
	if len(mrounds) > 0 {
		rep.set("round.empty_share", "share", float64(dt.emptyRounds)/float64(len(mrounds)))
	}
	var roundTotal, childCovered time.Duration
	children := ss.childrenOf()
	for _, r := range mrounds {
		roundTotal += r.dur()
		childCovered += children[r.ID].covered()
	}
	if roundTotal > 0 {
		rep.set("round.residual_share", "share", float64(roundTotal-childCovered)/float64(roundTotal))
	}
	idle := win.named("idle", start, end).total()
	blocking := childCovered + idle
	rep.set("trace.residual_share", "share", float64(wall-blocking)/float64(wall))
	rep.blocking = blockingTable(mrounds, children, idle, wall)

	rep.set("gc.cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	rep.set("gc.pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	rep.setLayerPct("gen.late_p95_ms", late, 0.95)
	rep.note("traced serve: %d measured waves, %d rounds in the measured phase, %d spans, wall %.2f s", nWaves, len(mrounds), len(ss), wall.Seconds())
	writeSpans(rep, tr, cfg)
	return rep
}

func (a loopTallies) sub(b loopTallies) loopTallies {
	return loopTallies{
		polls: a.polls - b.polls, emptyPolls: a.emptyPolls - b.emptyPolls, raw: a.raw - b.raw,
		dups: a.dups - b.dups, appended: a.appended - b.appended, emptyRounds: a.emptyRounds - b.emptyRounds,
		appendBytes: a.appendBytes - b.appendBytes,
	}
}
