package smishkit

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/report"
)

// enrichmentServices are the backends whose client.<svc>.calls counters
// must stay zero during a durable restart: a replayed dataset was already
// enriched by the process that died.
var enrichmentServices = []string{"hlr", "whois", "ctlog", "dnsdb", "avscan", "shortener"}

// summaryJSON renders the canonical /query/summary body for a record set,
// via the same view type the daemon serves from — the reference the
// restarted daemon's HTTP answer is compared against byte-for-byte.
func summaryJSON(t *testing.T, ds *Dataset) string {
	t.Helper()
	v := report.NewQueryView()
	v.Add(ds.Records)
	data, err := json.Marshal(v.Summarize(0))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// fetchSummaryWhenComplete polls GET /query/summary until the view has
// absorbed wantRecords records (the projection merges asynchronously) and
// returns that stable body, marshalled canonically.
func fetchSummaryWhenComplete(t *testing.T, statusURL string, wantRecords int) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(statusURL + "/query/summary")
		if err != nil {
			t.Fatalf("GET /query/summary: %v", err)
		}
		var s report.Summary
		decErr := json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if decErr != nil {
			t.Fatalf("decode summary: %v", decErr)
		}
		if s.Records == wantRecords {
			data, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			return string(data)
		}
		if time.Now().After(deadline) {
			t.Fatalf("summary never reached %d records (at %d)", wantRecords, s.Records)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeDurableRestart is the acceptance test for the record log: a
// daemon with Options.Durability dies mid-serve (simulated by cancelling
// Serve and never closing the study — no clean shutdown, no Close
// snapshot), and a brand-new Study over the same data directory must
//
//   - re-collect nothing (cursors) and re-enrich nothing (record log):
//     every client.<svc>.calls counter stays 0 in the restarted study's
//     own registry,
//   - replay the injected wave's journal so the cursors pointing at
//     inj1-… post IDs still resolve against the fresh simulation,
//   - serve a /query/summary identical to the canonical summary of the
//     uninterrupted run, and
//   - return a Serve dataset record-identical to the uninterrupted run.
func TestServeDurableRestart(t *testing.T) {
	seed, msgs := int64(41), 300
	inject := InjectSpec{Seed: 99, Messages: 40}
	dataDir := t.TempDir()

	// LiveWaves must be 0 under durability restart: holdback waves released
	// after an injection rebase onto the injection timeline, so a restarted
	// simulation (which replays all injects after seeding all fixtures)
	// would publish them in a different order than the cursors consumed.
	mkOpts := func(reg *Collector, store CheckpointStore, durable bool, rounds int, onRound func(RoundInfo)) Options {
		o := Options{
			Seed:      seed,
			Messages:  msgs,
			Collector: reg,
			Service: &ServiceConfig{
				PollInterval: 10 * time.Millisecond,
				MaxRounds:    rounds,
				Checkpoints:  store,
				OnRound:      onRound,
			},
		}
		if durable {
			o.Durability = &DurabilityConfig{Dir: filepath.Join(dataDir, "records")}
		}
		return o
	}

	// Uninterrupted reference: collect everything plus one injected wave.
	var ref *Study
	refOpts := mkOpts(nil, NewMemCheckpoints(), false, 3, func(info RoundInfo) {
		if info.Round == 1 {
			if _, err := ref.InjectWave(inject); err != nil {
				t.Errorf("reference inject: %v", err)
			}
		}
	})
	ref, err := NewStudy(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Records) == 0 {
		t.Fatal("reference run produced no records")
	}
	wantSummary := summaryJSON(t, want)

	// First durable daemon: inject at round 1, "crash" after round 2 —
	// cancel Serve and never Close, so no final log close runs; the data
	// directory is whatever the commit path fsynced.
	store1, err := NewFileCheckpoints(filepath.Join(dataDir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	ctx1, kill := context.WithCancel(context.Background())
	defer kill()
	var study1 *Study
	var killed atomic.Bool
	study1, err = NewStudy(mkOpts(nil, store1, true, 0, func(info RoundInfo) {
		if info.Err != nil {
			t.Errorf("round %d: %v", info.Round, info.Err)
		}
		if info.Round == 1 {
			if _, err := study1.InjectWave(inject); err != nil {
				t.Errorf("inject: %v", err)
			}
		}
		if info.Round == 3 && !killed.Swap(true) {
			kill()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	first, err := study1.Serve(ctx1)
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Load() {
		t.Fatal("daemon completed before the kill fired")
	}
	diffMultisets(t, "killed durable run vs uninterrupted", recMultiset(first), recMultiset(want))

	// Restart: fresh Study, fresh registry, same data directory.
	reg2 := NewCollector()
	store2, err := NewFileCheckpoints(filepath.Join(dataDir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	var study2 *Study
	var recollected atomic.Int64
	var gotSummary atomic.Pointer[string]
	study2, err = NewStudy(mkOpts(reg2, store2, true, 2, func(info RoundInfo) {
		if info.Err != nil {
			t.Errorf("restart round %d: %v", info.Round, info.Err)
		}
		recollected.Add(int64(info.NewReports))
		if info.Round == 1 {
			s := fetchSummaryWhenComplete(t, study2.StatusURL(), len(want.Records))
			gotSummary.Store(&s)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer study2.Close()
	second, err := study2.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if n := recollected.Load(); n != 0 {
		t.Errorf("restarted daemon re-collected %d reports, want 0", n)
	}
	diffMultisets(t, "restarted (replayed) dataset vs uninterrupted", recMultiset(second), recMultiset(want))
	if got := gotSummary.Load(); got == nil {
		t.Error("restart summary never captured")
	} else if *got != wantSummary {
		t.Errorf("restarted /query/summary diverges from uninterrupted run:\n got: %s\nwant: %s", *got, wantSummary)
	}

	// Zero re-enrichment: the restarted study's registry never saw a single
	// backend client call — the dataset came from the log, not the services.
	snap := study2.Stats()
	for _, svc := range enrichmentServices {
		if n := snap.Telemetry.CounterValue("client." + svc + ".calls"); n != 0 {
			t.Errorf("restart made %d %s calls, want 0", n, svc)
		}
	}
	if snap.Durability == nil {
		t.Fatal("Stats().Durability is nil with Options.Durability set")
	}
	if got := snap.Durability.Replayed; got != int64(len(want.Records)) {
		t.Errorf("Stats().Durability.Replayed = %d, want %d", got, len(want.Records))
	}
	if snap.Durability.Injects != 1 {
		t.Errorf("Stats().Durability.Injects = %d, want 1", snap.Durability.Injects)
	}
}

// TestServeDurableQueryEndpoints drives /query/reports end-to-end against
// a live durable daemon: a domain known to be in the dataset must come
// back with its reports, and the unfiltered listing must respect limit.
func TestServeDurableQueryEndpoints(t *testing.T) {
	dataDir := t.TempDir()
	store, err := NewFileCheckpoints(filepath.Join(dataDir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	var study *Study
	type roundSummary struct {
		total   int
		domain  string
		matched int
	}
	var probe atomic.Pointer[roundSummary]
	study, err = NewStudy(Options{
		Seed:     43,
		Messages: 200,
		Service: &ServiceConfig{
			PollInterval: 10 * time.Millisecond,
			MaxRounds:    2,
			Checkpoints:  store,
			OnRound: func(info RoundInfo) {
				if info.Round != 2 {
					return
				}
				base := study.StatusURL()
				// Wait until the projection has fully merged round 1.
				deadline := time.Now().Add(10 * time.Second)
				for {
					resp, err := http.Get(base + "/query/reports?limit=5")
					if err != nil {
						t.Errorf("GET /query/reports: %v", err)
						return
					}
					var res report.ReportsResult
					decErr := json.NewDecoder(resp.Body).Decode(&res)
					resp.Body.Close()
					if decErr != nil {
						t.Errorf("decode reports: %v", decErr)
						return
					}
					if res.TotalMatched > 0 || time.Now().After(deadline) {
						ps := roundSummary{total: res.TotalMatched}
						if len(res.Reports) > 5 {
							t.Errorf("limit=5 returned %d reports", len(res.Reports))
						}
						for _, r := range res.Reports {
							if r.Domain != "" {
								ps.domain = r.Domain
								break
							}
						}
						if ps.domain != "" {
							resp2, err := http.Get(base + "/query/reports?domain=" + ps.domain)
							if err != nil {
								t.Errorf("GET by domain: %v", err)
								return
							}
							var res2 report.ReportsResult
							decErr := json.NewDecoder(resp2.Body).Decode(&res2)
							resp2.Body.Close()
							if decErr != nil {
								t.Errorf("decode by-domain: %v", decErr)
								return
							}
							ps.matched = res2.TotalMatched
							for _, r := range res2.Reports {
								if r.Domain != ps.domain {
									t.Errorf("domain filter leaked %q (want %q)", r.Domain, ps.domain)
								}
							}
						}
						probe.Store(&ps)
						return
					}
					time.Sleep(10 * time.Millisecond)
				}
			},
		},
		Durability: &DurabilityConfig{Dir: filepath.Join(dataDir, "records")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	ds, err := study.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) == 0 {
		t.Fatal("daemon produced no records")
	}
	ps := probe.Load()
	if ps == nil {
		t.Fatal("query probe never ran")
	}
	if ps.total == 0 {
		t.Fatal("live /query/reports matched nothing")
	}
	if ps.domain != "" && ps.matched == 0 {
		t.Fatalf("domain filter %q matched nothing", ps.domain)
	}
}

// TestServeProjectionSharesRecordLog drives a durable daemon whose record
// log grows every round while readers call the projection's Dataset and
// GET /query/summary concurrently (run it under -race: the projection
// indexes the log's own record list, which the round loop appends to).
// After the drain, and again after a restart seeded from the log, the
// projection's dataset must encode to the same JSON as the log's, records
// and totals alike.
func TestServeProjectionSharesRecordLog(t *testing.T) {
	dataDir := t.TempDir()
	mkOpts := func(store CheckpointStore, rounds int, onReady func(string), onRound func(RoundInfo)) Options {
		return Options{
			Seed:       47,
			Messages:   300,
			Durability: &DurabilityConfig{Dir: filepath.Join(dataDir, "records")},
			Service: &ServiceConfig{
				PollInterval: 5 * time.Millisecond,
				MaxRounds:    rounds,
				Checkpoints:  store,
				OnReady:      onReady,
				OnRound:      onRound,
			},
		}
	}
	encode := func(ds *Dataset) string {
		t.Helper()
		data, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	const rounds = 5
	var study *Study
	stop := make(chan struct{})
	var readers sync.WaitGroup
	var reads atomic.Int64
	read := func(url string) {
		// Readers only start once Serve has set up its state.
		proj := study.svc.proj
		for i := 0; i < 2; i++ {
			readers.Add(2)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					ds := proj.Dataset()
					if len(ds.Records) > 0 && ds.Records[0].ID == "" {
						t.Error("Dataset returned a record with no ID")
					}
					reads.Add(1)
				}
			}()
			go func() {
				defer readers.Done()
				last := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get(url + "/query/summary")
					if err != nil {
						t.Errorf("GET /query/summary: %v", err)
						return
					}
					var sum report.Summary
					err = json.NewDecoder(resp.Body).Decode(&sum)
					resp.Body.Close()
					if err != nil {
						t.Errorf("decode summary: %v", err)
						return
					}
					if sum.Records < last {
						t.Errorf("summary total went back from %d to %d", last, sum.Records)
					}
					last = sum.Records
					reads.Add(1)
				}
			}()
		}
	}
	store1, err := NewFileCheckpoints(filepath.Join(dataDir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	study, err = NewStudy(mkOpts(store1, rounds, read, func(info RoundInfo) {
		if info.Err != nil {
			t.Errorf("round %d: %v", info.Round, info.Err)
		}
		if info.Round < rounds {
			// Grow the log every round while the readers run.
			if _, err := study.InjectWave(InjectSpec{Seed: int64(100 + info.Round), Messages: 30}); err != nil {
				t.Errorf("inject: %v", err)
			}
			return
		}
		close(stop)
		readers.Wait()
	}))
	if err != nil {
		t.Fatal(err)
	}
	first, err := study.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatal("readers never ran")
	}
	firstJSON := encode(first)
	if want := encode(study.rlog.Dataset()); firstJSON != want {
		t.Fatalf("drained projection diverges from the record log:\n got: %s\nwant: %s", firstJSON, want)
	}
	if err := study.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the projection is seeded from the log and collects nothing.
	store2, err := NewFileCheckpoints(filepath.Join(dataDir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := NewStudy(mkOpts(store2, 1, nil, func(info RoundInfo) {
		if info.Err != nil || info.NewReports != 0 {
			t.Errorf("restart round %d: %d new reports, err %v", info.Round, info.NewReports, info.Err)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	second, err := restarted.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	secondJSON := encode(second)
	if want := encode(restarted.rlog.Dataset()); secondJSON != want {
		t.Fatalf("seeded projection diverges from the record log:\n got: %s\nwant: %s", secondJSON, want)
	}
	if secondJSON != firstJSON {
		t.Fatal("restarted projection differs from the projection before the restart")
	}
}
