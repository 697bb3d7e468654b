package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/report"
	"github.com/smishkit/smishkit/internal/screenshot"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// tracedStudy runs the one-shot reproduction as NewStudy, Run and
// WriteReport do, one layer call at a time: GenerateWorld, the simulation,
// the tier stack with shims, CollectAll per forum, then Curate, Enrich,
// Annotate and RenderAll.
func tracedStudy(cfg runConfig) *result {
	rep := newResult()
	sc := cfg.scale
	tr := newTracer()
	reg := telemetry.NewRegistry()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	snap0 := reg.Snapshot()

	root := tr.begin("study", -1, -1)
	id := tr.begin("setup.world", root, -1)
	w := corpus.Generate(corpus.Config{Seed: cfg.seed, Messages: sc.Messages})
	tr.end(id)
	id = tr.begin("setup.sim", root, -1)
	sim, err := core.StartSimulationCfg(w, reg, core.SimConfig{})
	tr.end(id)
	if err != nil {
		rep.check("simulation boots", false, err.Error())
		return rep
	}
	defer sim.Close()
	id = tr.begin("setup.tiers", root, -1)
	pipe, err := core.NewPipeline(tracedTiers(sim.Services(), tr, reg), core.Options{
		Telemetry: reg,
		Extractor: &timedExtractor{next: screenshot.StructuredVision{}, tr: tr},
	})
	tr.end(id)
	if err != nil {
		rep.check("pipeline builds", false, err.Error())
		return rep
	}

	ctx := withSpan(context.Background(), root, -1)
	var reports []forum.RawReport
	empty := 0
	for _, c := range sim.Collectors() {
		id := tr.begin("forum.collect."+fmt.Sprint(c.Name()), root, -1)
		got, _, err := forum.CollectAll(ctx, []forum.Collector{c})
		tr.end(id)
		if err != nil {
			rep.check("collect", false, err.Error())
			return rep
		}
		if len(got) == 0 {
			empty++
		}
		reports = append(reports, got...)
	}
	seen := map[string]bool{}
	dups := 0
	for _, r := range reports {
		if seen[r.PostID] {
			dups++
		}
		seen[r.PostID] = true
	}

	id = tr.begin("curate", root, -1)
	ds := pipe.Curate(reports)
	tr.end(id)
	id = tr.begin("enrich", root, -1)
	err = pipe.Enrich(withSpan(ctx, id, -1), ds)
	tr.end(id)
	if err == nil {
		id = tr.begin("annotate", root, -1)
		err = pipe.Annotate(ctx, ds)
		tr.end(id)
	}
	if err == nil {
		id = tr.begin("report.render", root, -1)
		err = report.RenderAll(io.Discard, ds)
		tr.end(id)
	}
	tr.end(root)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	snap1 := reg.Snapshot()
	if err != nil {
		rep.check("study runs", false, err.Error())
		return rep
	}
	n := len(ds.Records)
	rep.output = digest(ds)
	rep.attempted = n
	rep.failed = int(counterSum(snap1, "pipeline.enrich.degraded_records"))
	if n > 0 {
		rep.cpuPer1k = (cpu1 - cpu0).Seconds() / float64(n) * 1000
	}

	ss := spanSet(tr.snapshot())
	all := ss.window(0, 1<<62)
	children := ss.childrenOf()
	rootSpan := ss[root]
	rep.set("setup.world_s", "s", all.named("setup.world", 0, 1<<62).total().Seconds())
	rep.set("setup.sim_s", "s", all.named("setup.sim", 0, 1<<62).total().Seconds())
	rep.setAbsent("setup.catchup_s", "a batch study has no daemon catch-up")

	polls := all.named("forum.collect", 0, 1<<62)
	rep.set("forum.collect_s", "s", polls.total().Seconds())
	rep.set("forum.reports", "count", float64(len(reports)))
	rep.setLayerPct("forum.poll_p50_ms", polls.ms(), 0.5)
	if len(reports) > 0 {
		rep.set("forum.dup_per_1k", "1/1k", float64(dups)/float64(len(reports))*1000)
	}
	rep.set("forum.empty_poll_share", "share", float64(empty)/float64(len(polls)))
	curateMetrics(rep, all, snap0, snap1, len(reports))
	enrichMetrics(rep, all, snap0, snap1)
	rep.set("annotate.busy_s", "s", all.named("annotate", 0, 1<<62).total().Seconds())
	rep.set("report.render_s", "s", all.named("report.render", 0, 1<<62).total().Seconds())
	tierMetrics(rep, all, snap0, snap1)
	for _, m := range shardMetricNames {
		rep.setAbsent(m, "unsharded")
	}
	for _, m := range []string{"recordlog.append_p50_ms", "recordlog.append_p95_ms", "recordlog.bytes_per_record", "recordlog.dedup_dropped"} {
		rep.setAbsent(m, "a batch study has no record log")
	}
	for _, m := range []string{"checkpoint.save_p50_ms", "checkpoint.saves_per_round"} {
		rep.setAbsent(m, "a batch study keeps no cursors")
	}
	for _, m := range []string{"projection.apply_p50_ms", "projection.backlog_max_s", "query.summarize_p50_ms"} {
		rep.setAbsent(m, "a batch study has no projection or query layer")
	}
	for _, m := range []string{"round.count", "round.p50_ms", "round.p95_ms", "round.empty_share", "round.residual_share"} {
		rep.setAbsent(m, "a batch study has no serve rounds")
	}
	rep.setAbsent("gen.late_p95_ms", "a batch study is a closed loop with no schedule")

	wall := rootSpan.dur()
	stages := children[root].covered()
	rep.set("trace.residual_share", "share", float64(wall-stages)/float64(wall))
	rep.blocking = blockingTable(spanSet{rootSpan}, children, 0, wall)
	rep.set("gc.cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	rep.set("gc.pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	rep.note("traced study: %d messages, %d reports, %d records, %d spans, wall %.2f s", sc.Messages, len(reports), n, len(ss), time.Duration(wall).Seconds())
	writeSpans(rep, tr, cfg)
	return rep
}
