package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/smishkit/smishkit/internal/batchmux"
	"github.com/smishkit/smishkit/internal/enrichcache"
	"github.com/smishkit/smishkit/internal/resilience"
	"github.com/smishkit/smishkit/internal/shard"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// perLayerReported are the per-layer metrics the result line carries in a
// traced run: the ones every workload named in BENCHMARK.json reports.
// Metrics of a layer only some workloads exercise (shard.*, annotate, report
// render) are printed as lines above it, or as absent.
var perLayerReported = []string{
	"setup.world_s", "setup.sim_s", "setup.catchup_s",
	"forum.collect_s", "forum.reports", "forum.poll_p50_ms", "forum.dup_per_1k", "forum.empty_poll_share",
	"curate.busy_s", "curate.ms_per_1k", "curate.decoys",
	"enrich.busy_s", "enrich.record_p50_ms", "enrich.record_p95_ms", "enrich.degraded_records",
	"breaker.calls", "breaker.short_circuited",
	"cache.lookups", "cache.hit_ratio", "cache.coalesced",
	"batch.keys", "batch.flushes", "batch.keys_per_flush", "batch.wait_p50_ms", "batch.fallthrough",
	"upstream.calls.hlr", "upstream.calls.whois", "upstream.calls.ctlog", "upstream.calls.dnsdb",
	"upstream.calls.avscan", "upstream.calls.shortener",
	"upstream.rtt_p50_ms", "upstream.busy_s", "upstream.retries", "upstream.errors",
	"recordlog.append_p50_ms", "recordlog.append_p95_ms", "recordlog.bytes_per_record", "recordlog.dedup_dropped",
	"checkpoint.save_p50_ms", "checkpoint.saves_per_round",
	"projection.apply_p50_ms", "projection.backlog_max_s", "query.summarize_p50_ms",
	"round.count", "round.p50_ms", "round.p95_ms", "round.empty_share", "round.residual_share",
	"gc.cycles", "gc.pause_ms", "trace.overhead_share", "trace.residual_share", "gen.late_p95_ms",
}

var shardMetricNames = []string{
	"shard.route_p50_ms", "shard.slowest_p50_ms", "shard.busy_skew",
	"shard.records_skew", "shard.barrier_wait_p50_ms", "shard.redispatched",
}

// runTraced runs the workload untraced once (one set-up) and then traced
// on the same seed and load, checks that both produced the same output,
// and reports the per-layer metrics with the tracing overhead.
func runTraced(w workload, cfg runConfig) *result {
	bcfg := cfg
	bcfg.scale.Setups = 1
	bcfg.scale.MinIterations = 1
	base := w.run(bcfg)
	rep := w.traced(cfg)
	rep.check("untraced baseline run is correct", base.ok(), "")
	rep.check("traced output matches the untraced run", base.output != "" && base.output == rep.output,
		fmt.Sprintf("untraced %.80s / traced %.80s", base.output, rep.output))
	if b := base.metrics["cpu_s_per_1k_records"].Value; b > 0 && rep.cpuPer1k > 0 {
		rep.set("trace.overhead_share", "share", rep.cpuPer1k/b-1)
		rep.note("tracing overhead: %.3f CPU-s per 1k records traced vs %.3f untraced", rep.cpuPer1k, b)
	}
	rep.jsonOnly = perLayerReported
	return rep
}

// Tier constructors at their documented defaults, as the workloads
// configure them.
func newBatch(reg *telemetry.Registry) *batchmux.Mux { return batchmux.New(batchmux.Config{}, reg) }
func newCache(reg *telemetry.Registry) *enrichcache.Cache {
	return enrichcache.New(enrichcache.Config{}, reg)
}
func newBreakers(reg *telemetry.Registry) *resilience.Breakers {
	return resilience.New(resilience.Config{}, reg)
}

// setLayerPct reports a per-layer percentile in milliseconds, or marks it
// absent when too few samples carry it.
func (r *result) setLayerPct(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if p == 0.5 && len(xs) > 0 {
		v, err = median(xs), nil
	}
	if err != nil {
		r.setAbsent(name, err.Error())
		return
	}
	r.set(name, "ms", v)
}

// tierCounter sums the counter "<tier>.<service>.<metric>" over every
// service and every registry prefix (a shard view adds one).
func tierCounter(snap telemetry.Snapshot, tier, metric string) int64 {
	var n int64
	for name, v := range snap.Counters {
		parts := strings.Split(name, ".")
		if k := len(parts); k >= 3 && parts[k-3] == tier && parts[k-1] == metric {
			n += v
		}
	}
	return n
}

func delta(s0, s1 telemetry.Snapshot, f func(telemetry.Snapshot) int64) int64 { return f(s1) - f(s0) }

func curateMetrics(rep *result, win spanSet, s0, s1 telemetry.Snapshot, raw int) {
	busy := win.named("curate.extract", math.MinInt64, math.MaxInt64).covered()
	rep.set("curate.busy_s", "s", busy.Seconds())
	if raw > 0 {
		rep.set("curate.ms_per_1k", "ms/1k", ms(busy)/float64(raw)*1000)
	}
	rep.set("curate.decoys", "count", float64(delta(s0, s1, func(s telemetry.Snapshot) int64 {
		return counterSum(s, "pipeline.curate.decoy")
	})))
}

func enrichMetrics(rep *result, win spanSet, s0, s1 telemetry.Snapshot) {
	rep.set("enrich.busy_s", "s", win.named("breaker", math.MinInt64, math.MaxInt64).covered().Seconds())
	var best telemetry.HistogramStats
	for name, h := range s1.Histograms {
		if strings.HasSuffix(name, "pipeline.enrich.record_latency") && h.Count > best.Count {
			best = h
		}
	}
	if best.Count > 0 {
		rep.set("enrich.record_p50_ms", "ms", ms(best.P50))
		rep.set("enrich.record_p95_ms", "ms", ms(best.P95))
	} else {
		rep.setAbsent("enrich.record_p50_ms", "no record enriched")
		rep.setAbsent("enrich.record_p95_ms", "no record enriched")
	}
	rep.set("enrich.degraded_records", "count", float64(delta(s0, s1, func(s telemetry.Snapshot) int64 {
		return counterSum(s, "pipeline.enrich.degraded_records")
	})))
}

func tierMetrics(rep *result, win spanSet, s0, s1 telemetry.Snapshot) {
	all := func(name string) spanSet { return win.named(name, math.MinInt64, math.MaxInt64) }
	tc := func(tier, metric string) float64 {
		return float64(tierCounter(s1, tier, metric) - tierCounter(s0, tier, metric))
	}
	rep.set("breaker.calls", "count", float64(len(all("breaker"))))
	rep.set("breaker.short_circuited", "count", tc("breaker", "short_circuits"))

	hits, misses := tc("cache", "hits"), tc("cache", "misses")
	rep.set("cache.lookups", "count", hits+misses)
	if hits+misses > 0 {
		rep.set("cache.hit_ratio", "share", hits/(hits+misses))
	}
	rep.set("cache.coalesced", "count", tc("cache", "coalesced"))

	keys, flushes := tc("batch", "batch_size"), tc("batch", "flushes")
	rep.set("batch.keys", "count", keys)
	rep.set("batch.flushes", "count", flushes)
	if flushes > 0 {
		rep.set("batch.keys_per_flush", "count", keys/flushes)
	} else {
		rep.set("batch.keys_per_flush", "count", 0)
	}
	rep.set("batch.fallthrough", "count", tc("batch", "fallthrough"))
	var waits []float64
	for _, svc := range []string{"hlr", "dnsdb", "avscan"} {
		for _, s := range all("batch." + svc) {
			if s.Name == "batch."+svc {
				waits = append(waits, ms(s.dur()))
			}
		}
	}
	rep.setLayerPct("batch.wait_p50_ms", waits, 0.5)
	rep.setLayerPct("batch.wait_p95_ms", waits, 0.95)

	var retries, errs int64
	for _, svc := range services {
		calls := s1.CounterValue("client."+svc+".calls") - s0.CounterValue("client."+svc+".calls")
		rep.set("upstream.calls."+svc, "count", float64(calls))
		retries += s1.CounterValue("client."+svc+".retries") - s0.CounterValue("client."+svc+".retries")
		errs += s1.CounterValue("client."+svc+".errors") - s0.CounterValue("client."+svc+".errors")
	}
	up := all("upstream")
	rep.setLayerPct("upstream.rtt_p50_ms", up.ms(), 0.5)
	rep.setLayerPct("upstream.rtt_p95_ms", up.ms(), 0.95)
	rep.set("upstream.busy_s", "s", up.covered().Seconds())
	rep.set("upstream.retries", "count", float64(retries))
	rep.set("upstream.errors", "count", float64(errs))
}

// shardMetrics splits each round's Group.Run into routing (curate + route,
// up to the first shard dispatch), the slowest shard, and the time the
// other shards waited at the merge barrier.
func shardMetrics(rep *result, win spanSet, gs shard.GroupStats, n int) {
	byRound := map[int32]spanSet{}
	procStart := map[int32]int64{}
	busy := make([]float64, n)
	for _, s := range win {
		switch {
		case s.Name == "process":
			procStart[s.Group] = s.Start
		case strings.HasPrefix(s.Name, "shard."):
			byRound[s.Group] = append(byRound[s.Group], s)
			var i int
			if _, err := fmt.Sscanf(s.Name, "shard.%d", &i); err == nil && i >= 0 && i < n {
				busy[i] += s.dur().Seconds()
			}
		}
	}
	var route, slowest, barrier []float64
	for r, ss := range byRound {
		first, last := int64(math.MaxInt64), int64(0)
		var worst time.Duration
		for _, s := range ss {
			first = min(first, s.Start)
			last = max(last, s.End)
			worst = max(worst, s.dur())
		}
		if ps, ok := procStart[r]; ok {
			route = append(route, ms(time.Duration(first-ps)))
		}
		slowest = append(slowest, ms(worst))
		var wait time.Duration
		for _, s := range ss {
			wait += time.Duration(last - s.End)
		}
		barrier = append(barrier, ms(wait)/float64(len(ss)))
	}
	rep.setLayerPct("shard.route_p50_ms", route, 0.5)
	rep.setLayerPct("shard.slowest_p50_ms", slowest, 0.5)
	rep.setLayerPct("shard.barrier_wait_p50_ms", barrier, 0.5)
	rep.set("shard.busy_skew", "ratio", maxOverMean(busy))
	routed := make([]float64, 0, len(gs.PerShard))
	for _, p := range gs.PerShard {
		routed = append(routed, float64(p.Routed))
	}
	rep.set("shard.records_skew", "ratio", maxOverMean(routed))
	rep.set("shard.redispatched", "count", float64(gs.Redispatched))
}

// maxOverMean is the skew of xs: its largest value over its mean (1 when
// all are zero).
func maxOverMean(xs []float64) float64 {
	var sum, hi float64
	for _, x := range xs {
		sum += x
		hi = max(hi, x)
	}
	if sum == 0 {
		return 1
	}
	return hi / (sum / float64(len(xs)))
}

// window keeps the spans that started within [from, to).
func (ss spanSet) window(from, to int64) spanSet {
	var out spanSet
	for _, s := range ss {
		if s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

// childrenOf groups spans by parent.
func (ss spanSet) childrenOf() map[int32]spanSet {
	out := map[int32]spanSet{}
	for _, s := range ss {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

func (t *tracer) countNamed(name string) int {
	n := 0
	for _, s := range t.snapshot() {
		if s.Name == name {
			n++
		}
	}
	return n
}

// blockingTable lists the blocking path of the measured phase: each round
// stage's summed time, the poll-interval idle time, and what is left, as
// shares of the wall time.
func blockingTable(rounds spanSet, children map[int32]spanSet, idle, wall time.Duration) []string {
	stage := map[string]time.Duration{}
	for _, r := range rounds {
		for _, c := range children[r.ID] {
			name := c.Name
			if strings.HasPrefix(name, "forum.collect.") {
				name = "forum.collect"
			}
			stage[name] += c.dur()
		}
	}
	names := make([]string, 0, len(stage))
	var sum time.Duration
	for n, d := range stage {
		names = append(names, n)
		sum += d
	}
	sort.Slice(names, func(a, b int) bool { return stage[names[a]] > stage[names[b]] })
	out := []string{fmt.Sprintf("blocking path over %.3f s of wall time:", wall.Seconds())}
	for _, n := range names {
		out = append(out, fmt.Sprintf("  %-22s %9.3f s  %5.1f%%", n, stage[n].Seconds(), 100*float64(stage[n])/float64(wall)))
	}
	out = append(out, fmt.Sprintf("  %-22s %9.3f s  %5.1f%%", "idle (poll interval)", idle.Seconds(), 100*float64(idle)/float64(wall)))
	rest := wall - sum - idle
	out = append(out, fmt.Sprintf("  %-22s %9.3f s  %5.1f%%", "residual", rest.Seconds(), 100*float64(rest)/float64(wall)))
	return out
}

// writeSpans stores the run's spans where the -spans flag says.
func writeSpans(rep *result, tr *tracer, cfg runConfig) {
	if cfg.spanFile == "" {
		return
	}
	if err := os.MkdirAll(filepath.Dir(cfg.spanFile), 0o755); err != nil {
		rep.note("spans not written: %v", err)
		return
	}
	if err := tr.write(cfg.spanFile); err != nil {
		rep.note("spans not written: %v", err)
		return
	}
	rep.note("spans written to %s", cfg.spanFile)
}
