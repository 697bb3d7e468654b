// Command perfbench is smishkit's end-to-end benchmark. It runs one
// workload through the public facade, prints every end-to-end metric by
// name and unit, checks that the outputs are correct, and ends with one
// JSON result line. With -trace 1 it instead drives the same workload
// through each layer's own functions, timing every call, and prints the
// per-layer metrics. See README.md in this directory.
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	data := fs.String("data", ".bench_build/data", "directory for per-run data and checkpoint directories")
	spans := fs.String("spans", "", "traced run: write every span as JSON lines to this file (default: traces/<workload>-seed<seed>.jsonl beside -data)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	// One load-generating process sized to the machine: the daemon, the
	// simulated world and the generator share these CPUs.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := os.MkdirAll(*data, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dataDir, err := os.MkdirTemp(*data, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dataDir)

	if *spans == "" {
		*spans = filepath.Join(filepath.Dir(filepath.Clean(*data)), "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	}
	cfg := runConfig{
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		dataDir:  dataDir,
		scale:    w.full,
		spanFile: *spans,
	}
	var rep *result
	if *trace == 1 {
		rep = runTraced(w, cfg)
	} else {
		rep = w.run(cfg)
		for _, m := range endToEnd {
			rep.jsonOnly = append(rep.jsonOnly, m.name)
		}
	}
	rep.meta = runMeta(w, cfg, *trace == 1)
	rep.print(stdout)
	if !rep.ok() {
		return 1
	}
	return 0
}

// runConfig is what one invocation asks of a workload.
type runConfig struct {
	seed     int64
	measure  time.Duration
	dataDir  string // fresh per invocation, removed at exit
	scale    scale
	spanFile string
}

// workload is one named set of inputs.
type workload struct {
	name string
	// full is the size the benchmark runs; tests shrink it.
	full scale
	run  func(runConfig) *result
	// traced drives the same inputs through the layers' own functions.
	traced func(runConfig) *result
}

// scale holds every size knob of a workload.
type scale struct {
	Messages     int     `json:"messages"`      // seeded world size
	Shards       int     `json:"shards"`        // 0: unsharded
	WaveMessages int     `json:"wave_messages"` // messages per injected wave
	WaveRate     float64 `json:"waves_per_s"`
	QueryRate    float64 `json:"queries_per_s"`
	// RecurringSeeds > 0 cycles that many wave seeds (recurring campaigns,
	// cache-warm); 0 gives every wave a fresh seed (new campaigns, cold).
	RecurringSeeds int           `json:"recurring_seeds"`
	PollInterval   time.Duration `json:"poll_interval_ns"`
	// Warmup is load offered after set-up and before the measured phase.
	Warmup time.Duration `json:"warmup_ns"`
	// Setups is how many times a run sets the system up; setup_s is the
	// median.
	Setups int `json:"setups"`
	// MinIterations bounds the closed loop of a study run from below.
	MinIterations int `json:"min_iterations"`
}

// endToEnd lists the end-to-end metrics the result line of an untraced run
// carries, in BENCHMARK.json's order; the others are printed only. The tail
// percentiles are left out because whether a run meets a GC-driven stall
// decides them (one seed of serve-sharded read a query p95 of 32, 39 and
// 48 ms in three runs). The query latencies are left out because they are
// CPU work on a growing dataset and amplify drift in the speed of a shared
// VM: two ten-run sets of serve read a quartile spread of query_p50_ms of
// 0.25 and 0.26 of the median.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"records_per_s", "1/s"},
	{"fresh_p50_ms", "ms"},
	{"upstream_calls_per_1k_records", "calls/1k"},
	{"cpu_s_per_1k_records", "s/1k"},
	{"heap_live_mb", "MB"},
}

var workloads = map[string]workload{}

func register(w workload) { workloads[w.name] = w }

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness assertion.
type check struct {
	name   string
	ok     bool
	detail string
}

// result accumulates one run's figures, checks and operation counts.
type result struct {
	order     []string
	metrics   map[string]metric
	absent    map[string]string // metric -> why it does not apply
	checks    []check
	attempted int
	failed    int
	meta      map[string]any
	notes     []string // extra human-readable lines
	blocking  []string // traced runs: the blocking-path table

	// output fingerprints what the run produced, so a traced run can be
	// checked against the untraced one.
	output string
	// cpuPer1k is a traced run's process CPU per 1k records, the base of
	// its overhead figure.
	cpuPer1k float64
	// jsonOnly, when set, limits the result line to these metrics.
	jsonOnly []string
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, absent: map[string]string{}}
}

func (r *result) set(name, unit string, v float64) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setPct reports the p-quantile of xs, or a failed check when xs is too
// short to carry it.
func (r *result) setPct(name, unit string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		r.check(name+" has enough samples", false, err.Error())
		return
	}
	r.set(name, unit, v)
}

func (r *result) setAbsent(name, why string) { r.absent[name] = why }

func (r *result) check(name string, ok bool, detail string) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: detail})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) ok() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}

// print writes the human-readable lines, then the result JSON as the last
// line.
func (r *result) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, b := range r.blocking {
		fmt.Fprintln(w, b)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %-44s %s %s\n", c.name, status, c.detail)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "metric %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	absent := make([]string, 0, len(r.absent))
	for name := range r.absent {
		absent = append(absent, name)
	}
	sort.Strings(absent)
	for _, name := range absent {
		fmt.Fprintf(w, "absent %-36s (%s)\n", name, r.absent[name])
	}
	if r.meta != nil {
		buf, _ := json.Marshal(r.meta)
		fmt.Fprintf(w, "meta %s\n", buf)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.ok(), r.attempted, r.failed, r.metrics}
	if r.jsonOnly != nil {
		out.Metrics = map[string]metric{}
		for _, name := range r.jsonOnly {
			if m, ok := r.metrics[name]; ok {
				out.Metrics[name] = m
			}
		}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	buf, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf value can fail to encode; ok() already made the
		// run incorrect, so report that with no metrics.
		out.Metrics = map[string]metric{}
		buf, _ = json.Marshal(out)
	}
	fmt.Fprintf(w, "%s\n", buf)
}

// runMeta names the machine, the build and the inputs, so a result can be
// compared only with results from the same place.
func runMeta(w workload, cfg runConfig, traced bool) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.measure.Seconds(),
		"traced":     traced,
		"params":     cfg.scale,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commitID(),
		"data_fs":    fsType(cfg.dataDir),
	}
}
