package smishkit

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestInjectWave pins the load-injection facade: a valid wave appends
// posts the daemon then collects, and invalid specs are rejected before
// touching the simulation.
func TestInjectWave(t *testing.T) {
	study, err := NewStudy(Options{
		Seed:     41,
		Messages: 300,
		Service: &ServiceConfig{
			PollInterval: 10 * time.Millisecond,
			MaxRounds:    2,
			LiveWaves:    0,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	n, err := study.InjectWave(InjectSpec{Seed: 9, Messages: 30})
	if err != nil {
		t.Fatalf("InjectWave: %v", err)
	}
	if n <= 0 {
		t.Fatalf("InjectWave appended %d posts, want > 0", n)
	}

	for name, spec := range map[string]InjectSpec{
		"zero messages":  {Seed: 1, Messages: 0},
		"over cap":       {Seed: 1, Messages: MaxInjectMessages + 1},
		"unknown forum":  {Seed: 1, Messages: 5, Forums: []string{"myspace"}},
		"noise above 1":  {Seed: 1, Messages: 5, NoiseFraction: 1.5},
		"negative noise": {Seed: 1, Messages: 5, NoiseFraction: -0.1},
	} {
		if _, err := study.InjectWave(spec); err == nil {
			t.Errorf("InjectWave accepted %s: %+v", name, spec)
		}
	}

	// A second wave must namespace its IDs independently of the first —
	// append succeeding is the observable contract (colliding IDs would
	// corrupt the ID-resolving cursors and fail the round below).
	n2, err := study.InjectWave(InjectSpec{Seed: 9, Messages: 30})
	if err != nil || n2 <= 0 {
		t.Fatalf("second InjectWave: n=%d err=%v", n2, err)
	}

	ds, err := study.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) == 0 {
		t.Fatal("no records after serving an injected world")
	}
	st := study.Stats()
	if st.Service == nil {
		t.Fatal("Stats().Service nil after Serve")
	}
	if st.Service.InjectedPosts != n+n2 {
		t.Fatalf("InjectedPosts = %d, want %d", st.Service.InjectedPosts, n+n2)
	}
}

// TestServeStatusSchema drives the daemon the way the benchmark harness
// does — OnReady for the URL, POST /inject over HTTP mid-run, GET /status
// decoded against the versioned schema — and pins the schema's contract:
// schema_version present, all five forums in reports_1m, round
// percentiles populated after rounds complete.
func TestServeStatusSchema(t *testing.T) {
	var readyURL atomic.Value // string
	var injected atomic.Int64
	var study *Study
	var once atomic.Bool
	opts := Options{
		Seed:     43,
		Messages: 300,
		Service: &ServiceConfig{
			PollInterval: 10 * time.Millisecond,
			MaxRounds:    3,
			LiveWaves:    1,
			OnReady: func(statusURL string) {
				readyURL.Store(statusURL)
			},
			OnRound: func(info RoundInfo) {
				if info.Err != nil {
					t.Errorf("round %d: %v", info.Round, info.Err)
				}
				if !once.CompareAndSwap(false, true) {
					return
				}
				base, _ := readyURL.Load().(string)
				if base == "" {
					t.Error("OnReady had not fired by the first round")
					return
				}

				// Inject a wave over HTTP, exactly as cmd/loadgen does.
				body, _ := json.Marshal(InjectSpec{Seed: 7, Messages: 20})
				resp, err := http.Post(base+"/inject", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("POST /inject: %v", err)
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("POST /inject status = %s", resp.Status)
					return
				}
				var out struct {
					AppendedPosts int `json:"appended_posts"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.AppendedPosts <= 0 {
					t.Errorf("POST /inject response: appended=%d err=%v", out.AppendedPosts, err)
					return
				}
				injected.Store(int64(out.AppendedPosts))

				// A malformed spec must be a 400, not a daemon wobble.
				bad, _ := json.Marshal(InjectSpec{Seed: 1, Messages: -5})
				bresp, err := http.Post(base+"/inject", "application/json", bytes.NewReader(bad))
				if err != nil {
					t.Errorf("POST /inject (bad): %v", err)
					return
				}
				bresp.Body.Close()
				if bresp.StatusCode != http.StatusBadRequest {
					t.Errorf("POST /inject with bad spec: status = %s, want 400", bresp.Status)
				}

				// The status document honors the versioned schema.
				sresp, err := http.Get(base + "/status")
				if err != nil {
					t.Errorf("GET /status: %v", err)
					return
				}
				defer sresp.Body.Close()
				var raw map[string]json.RawMessage
				if err := json.NewDecoder(sresp.Body).Decode(&raw); err != nil {
					t.Errorf("status decode: %v", err)
					return
				}
				for _, field := range []string{
					"schema_version", "rounds", "reports", "records",
					"pending_batches", "backlog_seconds", "reports_1m",
					"reports_1m_total", "injected_posts", "round_ms", "cursors",
				} {
					if _, ok := raw[field]; !ok {
						t.Errorf("/status missing field %q", field)
					}
				}
				var ver int
				if err := json.Unmarshal(raw["schema_version"], &ver); err != nil || ver != ServiceStatsSchemaVersion {
					t.Errorf("schema_version = %d (err %v), want %d", ver, err, ServiceStatsSchemaVersion)
				}
				var perForum map[string]int
				if err := json.Unmarshal(raw["reports_1m"], &perForum); err != nil || len(perForum) != 5 {
					t.Errorf("reports_1m = %v (err %v), want all five forums present", perForum, err)
				}
			},
		},
	}
	var err error
	study, err = NewStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	if _, err := study.Serve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !once.Load() {
		t.Fatal("OnRound never fired")
	}

	st := study.Stats()
	if st.Service == nil {
		t.Fatal("Stats().Service nil after Serve")
	}
	if got, want := st.Service.InjectedPosts, int(injected.Load()); got != want {
		t.Errorf("InjectedPosts = %d, want %d", got, want)
	}
	// Injected posts were collected and committed: the trailing-60s window
	// must have registered them, and round percentiles are populated.
	if st.Service.Reports1mTotal <= 0 {
		t.Errorf("Reports1mTotal = %d, want > 0", st.Service.Reports1mTotal)
	}
	if st.Service.RoundMS.Count < 3 || st.Service.RoundMS.P95 <= 0 {
		t.Errorf("RoundMS = %+v, want >=3 completed rounds with positive p95", st.Service.RoundMS)
	}
	sum := 0
	for _, n := range st.Service.Reports1m {
		sum += n
	}
	if sum != st.Service.Reports1mTotal {
		t.Errorf("reports_1m sums to %d, total says %d", sum, st.Service.Reports1mTotal)
	}

	// The rendered service section carries the new throughput line.
	var out bytes.Buffer
	if err := WriteStats(&out, st, SectionService); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"schema v1", "reports_1m=", "injected="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("WriteStats service section missing %q:\n%s", want, out.String())
		}
	}
}
