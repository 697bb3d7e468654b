package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/smishkit/smishkit"
)

func init() {
	register(workload{
		name:   "study",
		full:   scale{Messages: 8000, Setups: 1, MinIterations: 2},
		run:    runStudy,
		traced: tracedStudy,
	})
}

// studyOptions is the one-shot reproduction: unsharded, barrier path, the
// three enrichment tiers, no daemon and no durability.
func studyOptions(seed int64, sc scale) smishkit.Options {
	o := smishkit.Options{Seed: seed, Messages: sc.Messages}
	tiers(&o)
	return o
}

// runStudy repeats NewStudy -> Run -> WriteReport in a closed loop for the
// measured time (at least MinIterations times) and reports the medians.
// fresh_* and query_* do not apply: a batch study has no waves and no
// query endpoint.
func runStudy(cfg runConfig) *result {
	rep := newResult()
	sc := cfg.scale
	var setups, rps, cpu, calls, heap []float64
	var digests []string
	var records, degraded int
	start := time.Now()
	var last time.Duration
	for i := 0; i < sc.MinIterations || time.Since(start)+last <= cfg.measure; i++ {
		iterStart := time.Now()
		st, err := smishkit.NewStudy(studyOptions(cfg.seed, sc))
		if err != nil {
			rep.check("study builds", false, err.Error())
			return rep
		}
		setups = append(setups, time.Since(iterStart).Seconds())
		c0, t0 := cpuTime(), time.Now()
		ds, err := st.Run(context.Background())
		if err == nil {
			err = smishkit.WriteReport(io.Discard, ds)
		}
		wall, c1 := time.Since(t0), cpuTime()
		if err != nil {
			_ = st.Close()
			rep.check("study runs", false, err.Error())
			return rep
		}
		n := len(ds.Records)
		snap := st.Stats().Telemetry
		rps = append(rps, float64(n)/wall.Seconds())
		cpu = append(cpu, (c1-c0).Seconds()/float64(n)*1000)
		calls = append(calls, float64(upstreamCalls(snap))/float64(n)*1000)
		heap = append(heap, heapLiveMB())
		digests = append(digests, digest(ds))
		records += n
		degraded += int(counterSum(snap, "pipeline.enrich.degraded_records"))
		_ = st.Close()
		last = time.Since(iterStart)
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("records_per_s", "1/s", median(rps))
	rep.set("upstream_calls_per_1k_records", "calls/1k", median(calls))
	rep.set("cpu_s_per_1k_records", "s/1k", median(cpu))
	rep.set("heap_live_mb", "MB", median(heap))
	for _, m := range []string{"fresh_p50_ms", "fresh_p90_ms", "fresh_p95_ms"} {
		rep.setAbsent(m, "a batch study has no waves")
	}
	for _, m := range []string{"query_p50_ms", "query_p95_ms"} {
		rep.setAbsent(m, "a batch study serves no queries")
	}
	same := true
	for _, d := range digests {
		same = same && d == digests[0]
	}
	rep.check("record digest equal across iterations", same, fmt.Sprint(digests))
	rep.check("study produced records", records > 0, fmt.Sprintf("%d records", records))
	rep.attempted = records
	rep.failed = degraded
	rep.output = digests[0]
	rep.note("study: %d iterations of %d messages, digest %s", len(digests), sc.Messages, digests[0])
	return rep
}
