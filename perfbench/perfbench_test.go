package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/smishkit/smishkit"
	"github.com/smishkit/smishkit/internal/batchmux"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/telemetry"
)

func TestPercentileRefusesShortTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 of 199 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 200)
	v, err := percentile(xs, 0.95)
	if err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	// Harrell-Davis over the samples 1..n lands on pn + 1/2.
	if math.Abs(v-190.5) > 0.01 {
		t.Fatalf("p95 of 1..200 = %v, want about 190.5", v)
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || math.Abs(v-10.5) > 1e-9 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10.5", v, err)
	}
	// One extreme sample moves the estimate a little, not to itself.
	xs[199] = 1000
	if v2, _ := percentile(xs, 0.95); v2-v > 5 {
		t.Fatalf("p95 moved from %v to %v on one outlier", v, v2)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
}

func TestCommitDetectorIgnoresDuplicateRecollection(t *testing.T) {
	// Three waves of 50 records over 1000 seeded ones. Rounds report the
	// raw reports they collected, which overshoot when a forum returns a
	// post twice; only the deduplicated durable count may commit a wave.
	det := newCommitDetector(1000, []int{50, 50, 50})
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	reads := 0
	durable := 1000
	round := func(newReports, nowDurable, ms int) {
		durable = nowDurable
		det.round(newReports, at(ms), func() int { reads++; return durable })
	}
	round(0, 1000, 10)  // nothing collected: the count is not read
	round(60, 1030, 20) // 30 fresh records, 30 re-collected duplicates
	round(25, 1050, 30) // wave 0 complete
	round(0, 1050, 40)
	round(80, 1100, 50) // wave 1 complete; 30 of the raw reports were repeats
	round(40, 1100, 60) // only duplicates: nothing new
	round(50, 1150, 70) // wave 2 complete
	round(10, 1150, 80) // a late duplicate must not commit anything twice
	commits, n := det.commits()
	if n != 3 {
		t.Fatalf("%d waves committed, want 3", n)
	}
	for k, want := range []int{30, 50, 70} {
		if !commits[k].Equal(at(want)) {
			t.Errorf("wave %d committed at %v, want %v", k, commits[k].Sub(t0), time.Duration(want)*time.Millisecond)
		}
	}
	if reads != 6 {
		t.Errorf("durable count read %d times, want 6 (only on rounds that collected something)", reads)
	}
	select {
	case <-det.done:
	default:
		t.Error("done not closed after the last wave committed")
	}
}

// fakeClock advances only when the generator sleeps or an event does work.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) bool {
	if t.After(c.now) {
		c.now = t
	}
	return true
}

func TestOpenLoopCountsLatenessFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(100, 0)}
	t0 := clk.now
	var dues []time.Time
	// Event 1 takes 250 ms, so events 2 and 3 (due at 200 and 300 ms)
	// start late instead of shifting the schedule.
	late := runOpenLoop(context.Background(), clk, schedule(t0, 100*time.Millisecond, 5, nil), func(k int, due time.Time) {
		dues = append(dues, due)
		if k == 1 {
			clk.now = clk.now.Add(250 * time.Millisecond)
		}
	})
	want := []float64{0, 0, 150, 50, 0}
	if len(late) != len(want) {
		t.Fatalf("lateness %v, want %v", late, want)
	}
	for k := range want {
		if late[k] != want[k] {
			t.Errorf("event %d late %v ms, want %v", k, late[k], want[k])
		}
		if d := dues[k].Sub(t0); d != time.Duration(k)*100*time.Millisecond {
			t.Errorf("event %d due at %v, want %v", k, d, time.Duration(k)*100*time.Millisecond)
		}
	}
}

func TestJitteredScheduleKeepsRate(t *testing.T) {
	t0 := time.Unix(0, 0)
	dues := schedule(t0, 100*time.Millisecond, 1000, rand.New(rand.NewSource(1)))
	for k, d := range dues {
		lo := t0.Add(time.Duration(k) * 100 * time.Millisecond)
		if d.Before(lo) || !d.Before(lo.Add(100*time.Millisecond)) {
			t.Fatalf("event %d due at %v, outside its period [%v, +100ms)", k, d.Sub(t0), lo.Sub(t0))
		}
	}
	again := schedule(t0, 100*time.Millisecond, 1000, rand.New(rand.NewSource(1)))
	for k := range dues {
		if !dues[k].Equal(again[k]) {
			t.Fatal("the same seed gave a different schedule")
		}
	}
}

// perKeyHLR has no bulk seam.
type perKeyHLR struct{}

func (perKeyHLR) Lookup(context.Context, string) (hlr.Result, error) { return hlr.Result{}, nil }

func TestShimsKeepBulkSeams(t *testing.T) {
	tr := newTracer()
	// The real clients implement every bulk interface; a shim over them
	// must too.
	real := timeServices(clientServices(t), tr, "upstream")
	if _, ok := real.HLR.(core.BulkHLRLookuper); !ok {
		t.Error("shim over the HLR client hides BulkHLRLookuper")
	}
	if _, ok := real.DNSDB.(core.BulkDNSResolver); !ok {
		t.Error("shim over the DNSDB client hides BulkDNSResolver")
	}
	if _, ok := real.AVScan.(core.BulkAVScanner); !ok {
		t.Error("shim over the AVScan client hides BulkAVScanner")
	}
	// A shim must not invent a seam the wrapped service lacks.
	if _, ok := timeHLR(perKeyHLR{}, tr, "x").(core.BulkHLRLookuper); ok {
		t.Error("shim over a per-key HLR claims BulkHLRLookuper")
	}
	batched := batchmux.New(batchmux.Config{}, telemetry.NewRegistry()).WrapServices(real)
	above := timeServices(batched, tr, "batch")
	if _, ok := above.DNSDB.(core.BulkDNSResolver); ok {
		t.Error("shim over batchmux claims a bulk seam batchmux does not offer")
	}
	if timeServices(core.Services{HLR: perKeyHLR{}}, tr, "x").AVScan != nil {
		t.Error("a shim over a nil service must stay nil, so the pipeline skips it")
	}
}

// clientServices returns the real service clients of a small simulation;
// the shim test only inspects their types.
func clientServices(t *testing.T) core.Services {
	t.Helper()
	sim, err := core.StartSimulation(smishkit.GenerateWorld(smishkit.WorldConfig{Seed: 1, Messages: 10}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sim.Close() })
	return sim.Services()
}

func TestDigestIgnoresOrder(t *testing.T) {
	ds := &smishkit.Dataset{Records: []smishkit.Record{{ID: "a", Text: "x"}, {ID: "b", Text: "y"}}}
	rev := &smishkit.Dataset{Records: []smishkit.Record{ds.Records[1], ds.Records[0]}}
	if digest(ds) != digest(rev) {
		t.Fatal("digest depends on record order")
	}
	changed := &smishkit.Dataset{Records: []smishkit.Record{{ID: "a", Text: "x"}, {ID: "b", Text: "z"}}}
	if digest(ds) == digest(changed) {
		t.Fatal("digest ignores an enriched field")
	}
}

// tiny shrinks a workload so a smoke run takes seconds.
func tiny(w workload) runConfig {
	sc := w.full
	sc.Messages = 150
	sc.WaveMessages = 5
	sc.WaveRate = 20
	sc.QueryRate = 20
	sc.Warmup = 200 * time.Millisecond
	sc.Setups = 2
	sc.MinIterations = 2
	return runConfig{seed: 3, measure: time.Second, scale: sc}
}

// smokeOK fails t on every failed check except a refused percentile, which
// a run this short cannot carry.
func smokeOK(t *testing.T, r *result) {
	t.Helper()
	for _, c := range r.checks {
		if !c.ok && !strings.HasSuffix(c.name, "has enough samples") && c.name != "generator on schedule" &&
			c.name != "untraced baseline run is correct" {
			t.Errorf("check %q failed: %s", c.name, c.detail)
		}
	}
	if r.attempted < 1 {
		t.Error("no operation attempted")
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots simulations")
	}
	for _, name := range workloadNames() {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			cfg := tiny(w)
			cfg.dataDir = t.TempDir()
			r := w.run(cfg)
			smokeOK(t, r)
			for _, m := range []string{"setup_s", "records_per_s", "upstream_calls_per_1k_records", "cpu_s_per_1k_records", "heap_live_mb"} {
				if _, ok := r.metrics[m]; !ok {
					t.Errorf("end-to-end metric %s missing", m)
				}
			}
			if r.output == "" {
				t.Error("run left no output fingerprint")
			}

			cfg.spanFile = t.TempDir() + "/spans.jsonl"
			tr := runTraced(w, cfg)
			smokeOK(t, tr)
			for _, m := range perLayerReported {
				_, present := tr.metrics[m]
				_, absent := tr.absent[m]
				if !present && !absent {
					t.Errorf("per-layer metric %s neither reported nor marked absent", m)
				}
				if name != "study" && !present && !strings.Contains(m, "p95") {
					t.Errorf("per-layer metric %s absent in %s: %s", m, name, tr.absent[m])
				}
			}
			if _, err := os.Stat(cfg.spanFile); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names the program
// reports in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not have", w.Name)
		}
	}
	if len(spec.PerLayer) != len(perLayerReported) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(perLayerReported))
	}
	for i := range spec.PerLayer {
		if i < len(perLayerReported) && spec.PerLayer[i].Name != perLayerReported[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %q, program %q", i, spec.PerLayer[i].Name, perLayerReported[i])
		}
	}
	for i, m := range spec.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(endToEnd))
	}
}
