package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smishkit/smishkit"
	"github.com/smishkit/smishkit/internal/report"
)

func init() {
	serve := scale{
		Messages:       2000,
		WaveMessages:   50,
		WaveRate:       10,
		QueryRate:      10,
		RecurringSeeds: 4,
		PollInterval:   20 * time.Millisecond,
		Warmup:         2 * time.Second,
		Setups:         5,
	}
	register(workload{name: "serve", full: serve, run: runServe, traced: tracedServe})
	sharded := serve
	sharded.Shards = 4
	sharded.RecurringSeeds = 0
	register(workload{name: "serve-sharded", full: sharded, run: runServe, traced: tracedServe})
}

// drainTimeout bounds how long a run waits, after the last wave was due,
// for every wave to commit. A wave still missing then counts as failed.
const drainTimeout = 20 * time.Second

// waveSeeds gives every wave of a run its seed. Recurring waves cycle a
// fixed set of seeds, the same campaigns reported again, so after the
// first cycle every enrichment key is cached whatever the run's seed. Fresh
// waves get a new seed each, derived from the run's seed: new campaigns,
// every key a cache miss.
func waveSeeds(seed int64, sc scale, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		if sc.RecurringSeeds > 0 {
			out[k] = int64(k%sc.RecurringSeeds) + 1
		} else {
			out[k] = seed*1_000_003 + int64(k) + 1
		}
	}
	return out
}

// queryJitter seeds the dashboard client's schedule from the run's seed.
func queryJitter(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x5eed)) }

// serveOptions is the daemon configuration both serve workloads run.
func serveOptions(seed int64, sc scale, dir string) (smishkit.Options, error) {
	ck, err := smishkit.NewFileCheckpoints(filepath.Join(dir, "checkpoints"))
	if err != nil {
		return smishkit.Options{}, err
	}
	o := smishkit.Options{
		Seed:     seed,
		Messages: sc.Messages,
		Pipeline: smishkit.PipelineOptions{Streaming: true},
		Durability: &smishkit.DurabilityConfig{
			Dir:              filepath.Join(dir, "records"),
			SnapshotInterval: quietSnapshots,
			CompactThreshold: quietCompaction,
		},
		Service: &smishkit.ServiceConfig{PollInterval: sc.PollInterval, Checkpoints: ck},
	}
	tiers(&o)
	if sc.Shards > 0 {
		o.Shards = &smishkit.ShardConfig{Shards: sc.Shards, Failover: true}
	}
	return o, nil
}

// The record log's periodic snapshot and size-triggered compaction each
// rewrite the whole dataset and stall the commit path for hundreds of
// milliseconds. At the defaults (30 s, 8 MiB) a 30 s run meets three or four
// of them at points that shift from run to run, and the handful of waves
// they delay decides whether fresh_p95_ms lands inside or outside the
// stall: the figure jumped between 100 and 200 ms across seeds. The serve
// workloads therefore measure ingestion between maintenance passes; both
// thresholds are pushed past what one run writes.
const (
	quietSnapshots  = time.Hour
	quietCompaction = 1 << 30
)

// daemon is one serving study, booted until its first round.
type daemon struct {
	study *smishkit.Study
	dir   string
	url   string
	setup time.Duration // NewStudy until the first round completed
	base  int           // durable records after the first round

	cancel context.CancelFunc
	done   chan struct{} // closed when Serve has returned
	final  *smishkit.Dataset
	err    error

	rounds    atomic.Int64
	roundErrs atomic.Int64
	det       atomic.Pointer[commitDetector]
	projWant  atomic.Int64 // projected record count to wait for (0: none)
	projected chan struct{}
	projOnce  sync.Once
}

// durable is the deduplicated record count of the study's record log.
func (d *daemon) durable() int { return d.study.Stats().Durability.Records }

// bootDaemon builds a durable serving study in a fresh directory and
// returns once its first round (the cold catch-up over the seeded world)
// has committed. Readiness is event-driven: OnReady gives the URL and the
// first OnRound ends set-up.
func bootDaemon(seed int64, sc scale, dir string) (*daemon, error) {
	opts, err := serveOptions(seed, sc, dir)
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, done: make(chan struct{}), projected: make(chan struct{})}
	first := make(chan time.Time, 1)
	urlc := make(chan string, 1)
	opts.Service.OnReady = func(u string) { urlc <- u }
	opts.Service.OnRound = func(info smishkit.RoundInfo) {
		now := time.Now()
		d.rounds.Add(1)
		if info.Err != nil {
			d.roundErrs.Add(1)
		}
		if info.Round == 1 {
			d.base = d.durable()
			first <- now
			return
		}
		if det := d.det.Load(); det != nil {
			det.round(info.NewReports, now, d.durable)
		}
		if want := d.projWant.Load(); want > 0 && int64(info.Records) >= want {
			d.projOnce.Do(func() { close(d.projected) })
		}
	}
	start := time.Now()
	st, err := smishkit.NewStudy(opts)
	if err != nil {
		return nil, err
	}
	d.study = st
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	go func() {
		defer close(d.done)
		d.final, d.err = st.Serve(ctx)
	}()
	select {
	case end := <-first:
		d.setup = end.Sub(start)
		d.url = <-urlc
		return d, nil
	case <-d.done:
		cancel()
		_ = st.Close()
		if d.err == nil {
			d.err = fmt.Errorf("serve returned before its first round")
		}
		return nil, d.err
	}
}

// stop drains the daemon and waits for Serve to return.
func (d *daemon) stop() error {
	d.cancel()
	<-d.done
	return d.err
}

// close releases the study and deletes its directory.
func (d *daemon) close() {
	_ = d.study.Close()
	_ = os.RemoveAll(d.dir)
}

// fetchSummary fetches GET /query/summary.
func fetchSummary(c *http.Client, url string) (report.Summary, error) {
	var sum report.Summary
	resp, err := c.Get(url + "/query/summary")
	if err != nil {
		return sum, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sum, fmt.Errorf("GET /query/summary: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&sum)
	return sum, err
}

func runServe(cfg runConfig) *result {
	rep := newResult()
	sc := cfg.scale
	var setups []float64
	var d *daemon
	for i := 0; i < sc.Setups; i++ {
		var err error
		d, err = bootDaemon(cfg.seed, sc, filepath.Join(cfg.dataDir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			rep.check("daemon boots", false, err.Error())
			return rep
		}
		setups = append(setups, d.setup.Seconds())
		if i < sc.Setups-1 {
			if err := d.stop(); err != nil {
				rep.check("set-up daemon drains", false, err.Error())
			}
			d.close()
		}
	}
	defer d.close()
	rep.set("setup_s", "s", median(setups))

	// Collect what the discarded set-ups left behind before load starts.
	runtime.GC()
	plan := planWaves(cfg, d.base, time.Now().Add(10*time.Millisecond))
	want := d.base + plan.total()
	d.det.Store(plan.det)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	var late []float64
	var injectErrs atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		late = plan.generate(ctx, func(seed int64, msgs int) error {
			_, err := d.study.InjectWave(smishkit.InjectSpec{Seed: seed, Messages: msgs})
			return err
		}, &injectErrs)
	}()
	qs := startQueries(ctx, &wg, d.url, queryDues(cfg, plan.t0))
	realClock{}.SleepUntil(ctx, plan.t0)
	snap0 := d.study.Stats().Telemetry
	cpu0 := cpuTime()

	select {
	case <-plan.det.done:
	case <-time.After(time.Until(plan.t0.Add(cfg.measure + drainTimeout))):
	}
	fresh, committed, end := plan.fresh()
	cpu1 := cpuTime()
	snap1 := d.study.Stats().Telemetry

	// The projection folds committed batches asynchronously; wait (on round
	// events) until it holds every record, then ask the query layer.
	d.projWant.Store(int64(want))
	select {
	case <-d.projected:
	case <-time.After(drainTimeout):
	}
	wg.Wait() // the generator and the query client end with their schedules
	client := &http.Client{Timeout: 10 * time.Second}
	sum, qerr := fetchSummary(client, d.url)
	client.CloseIdleConnections()
	if buf, err := json.Marshal(sum); err == nil && qerr == nil {
		rep.output = string(buf)
	}
	serveErr := d.stop()
	durable := d.durable()
	heap := heapLiveMB()

	nWaves := plan.measured()
	records := committed * plan.msgs
	degraded := counterSum(snap1, "pipeline.enrich.degraded_records")

	elapsed := end.Sub(plan.t0).Seconds()
	rep.set("records_per_s", "1/s", float64(records)/elapsed)
	rep.setPct("fresh_p50_ms", "ms", fresh, 0.50)
	rep.setPct("fresh_p90_ms", "ms", fresh, 0.90)
	rep.setPct("fresh_p95_ms", "ms", fresh, 0.95)
	rep.setPct("query_p50_ms", "ms", qs.latency, 0.50)
	rep.setPct("query_p95_ms", "ms", qs.latency, 0.95)
	if records > 0 {
		rep.set("upstream_calls_per_1k_records", "calls/1k", float64(upstreamCalls(snap1)-upstreamCalls(snap0))/float64(records)*1000)
		rep.set("cpu_s_per_1k_records", "s/1k", (cpu1-cpu0).Seconds()/float64(records)*1000)
	}
	rep.set("heap_live_mb", "MB", heap)

	rep.check("every wave commits exactly once", committed == nWaves, fmt.Sprintf("%d of %d waves committed", committed, nWaves))
	rep.check("durable records = initial + wave messages", durable == want, fmt.Sprintf("durable %d, initial %d + waves %d = %d", durable, d.base, plan.total(), want))
	rep.check("/query/summary total agrees after drain", qerr == nil && sum.Records == want, fmt.Sprintf("summary %d, want %d, err %v", sum.Records, want, qerr))
	rep.check("serve drains cleanly", serveErr == nil, fmt.Sprint(serveErr))
	lateP95, lerr := percentile(late, 0.95)
	rep.check("generator on schedule", lerr == nil && lateP95 <= maxLateMS, fmt.Sprintf("lateness p95 %.2f ms (limit %d ms) %v", lateP95, maxLateMS, errOrNil(lerr)))

	rounds := int(d.rounds.Load())
	rep.attempted = nWaves + qs.sent + rounds
	rep.failed = (nWaves - committed) + int(d.roundErrs.Load()) + int(degraded) + qs.failed + int(injectErrs.Load())
	rep.note("serve: %d warm-up + %d measured waves x %d messages at %.0f/s, %d queries at %.0f/s, %d rounds, %d durable records (%d initial), generator lateness p95 %.2f ms",
		plan.warm, nWaves, sc.WaveMessages, sc.WaveRate, qs.sent, sc.QueryRate, rounds, durable, d.base, lateP95)
	rep.note("setup_s samples: %v", setups)
	return rep
}

// maxLateMS is the generator lateness (p95) past which an open-loop run is
// invalid: the load it offered was not the load it claims.
const maxLateMS = 50

func errOrNil(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// queryStats is the dashboard client's outcome.
type queryStats struct {
	latency []float64 // ms from each query's due time to its full response
	sent    int
	failed  int
}

// queryDues is the dashboard client's schedule: QueryRate per second on
// average over the measured phase, jittered (see schedule).
func queryDues(cfg runConfig, t0 time.Time) []time.Time {
	period := time.Duration(float64(time.Second) / cfg.scale.QueryRate)
	return schedule(t0, period, int(cfg.measure.Seconds()*cfg.scale.QueryRate), queryJitter(cfg.seed))
}

// startQueries issues GET /query/summary at the given due times on one
// keep-alive connection, timing each from its due time. The result is
// ready once wg is done.
func startQueries(ctx context.Context, wg *sync.WaitGroup, url string, dues []time.Time) *queryStats {
	qs := &queryStats{}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer tr.CloseIdleConnections()
		runOpenLoop(ctx, realClock{}, dues, func(_ int, due time.Time) {
			qs.sent++
			resp, err := client.Get(url + "/query/summary")
			if err != nil {
				qs.failed++
				return
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				qs.failed++
				return
			}
			qs.latency = append(qs.latency, ms(time.Since(due)))
		})
	}()
	return qs
}
