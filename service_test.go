package smishkit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recFingerprint identifies a record by content. Pastebin paste grouping
// (and thus PostIDs) legitimately differs between a one-shot seed and a
// waved seed, so identity comparisons across run shapes key off content.
func recFingerprint(r Record) string {
	return fmt.Sprintf("%s|%v|%s|%s|%s", r.Forum, r.FromImage, r.Text, r.SenderRaw, r.ShownURL)
}

func recMultiset(ds *Dataset) map[string]int {
	out := make(map[string]int, len(ds.Records))
	for _, r := range ds.Records {
		out[recFingerprint(r)]++
	}
	return out
}

func diffMultisets(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	for fp, n := range want {
		if got[fp] != n {
			t.Fatalf("%s: record %.80q count %d, want %d", label, fp, got[fp], n)
		}
	}
	for fp, n := range got {
		if want[fp] == 0 {
			t.Fatalf("%s: unexpected record %.80q (count %d)", label, fp, n)
		}
	}
}

// TestServiceSoak runs the daemon for several rounds against a live world
// (fixture waves released while it polls) and pins the service mode's
// acceptance criteria: the status endpoint serves the counts and gauges,
// the projection holds every committed record, and the
// incrementally-maintained dataset matches a one-shot batch run of the
// same seed.
func TestServiceSoak(t *testing.T) {
	ctx := context.Background()
	seed, msgs := int64(29), 500

	// Reference: the classic batch study over the same world.
	batchStudy, err := NewStudy(Options{Seed: seed, Messages: msgs})
	if err != nil {
		t.Fatal(err)
	}
	defer batchStudy.Close()
	want, err := batchStudy.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var statusChecked atomic.Bool
	var study *Study
	opts := Options{
		Seed:     seed,
		Messages: msgs,
		Service: &ServiceConfig{
			PollInterval: 10 * time.Millisecond,
			MaxRounds:    3,
			LiveWaves:    2,
			OnRound: func(info RoundInfo) {
				if info.Err != nil {
					t.Errorf("round %d: %v", info.Round, info.Err)
				}
				if statusChecked.Load() {
					return
				}
				statusChecked.Store(true)
				// The status endpoint must be live while the daemon runs.
				var st ServiceStats
				resp, err := http.Get(study.StatusURL() + "/status")
				if err != nil {
					t.Errorf("status endpoint: %v", err)
					return
				}
				defer resp.Body.Close()
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Errorf("status decode: %v", err)
					return
				}
				if st.Rounds < 1 || len(st.Cursors) == 0 {
					t.Errorf("status stats = %+v, want >=1 round and cursors", st)
				}
				// /debug/telemetry rides alongside and exposes the
				// projection and cursor-lag instruments.
				tresp, err := http.Get(study.StatusURL() + "/debug/telemetry")
				if err != nil {
					t.Errorf("telemetry endpoint: %v", err)
					return
				}
				defer tresp.Body.Close()
				var buf bytes.Buffer
				if _, err := buf.ReadFrom(tresp.Body); err != nil {
					t.Errorf("telemetry read: %v", err)
					return
				}
				body := buf.String()
				for _, name := range []string{"projection.apply", "collect.cursor_lag.twitter"} {
					if !strings.Contains(body, name) {
						t.Errorf("telemetry snapshot missing %q", name)
					}
				}
			},
		},
	}
	study, err = NewStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	got, err := study.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !statusChecked.Load() {
		t.Error("OnRound never fired")
	}

	// The daemon observed all three waves of the same world, so its
	// projection must hold exactly the batch run's records.
	diffMultisets(t, "serve vs batch", recMultiset(got), recMultiset(want))
	if got.DecoysRejected != want.DecoysRejected || got.EmptyDropped != want.EmptyDropped {
		t.Fatalf("curation bookkeeping diverged: serve %d/%d batch %d/%d",
			got.DecoysRejected, got.EmptyDropped, want.DecoysRejected, want.EmptyDropped)
	}
	for f, n := range want.PostsByForum {
		if got.PostsByForum[f] != n {
			t.Fatalf("forum %s: serve saw %d posts, batch %d", f, got.PostsByForum[f], n)
		}
	}

	// The status scoreboard counts every projected record.
	st := study.Stats()
	if st.Service == nil {
		t.Fatal("Stats().Service nil after Serve")
	}
	if st.Service.Records != len(got.Records) {
		t.Fatalf("status records = %d, Serve returned %d", st.Service.Records, len(got.Records))
	}
	if st.Service.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", st.Service.Rounds)
	}

	// WriteStats renders the service section.
	var out bytes.Buffer
	if err := WriteStats(&out, st, SectionService); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rounds=3") {
		t.Fatalf("WriteStats service section missing rounds: %q", out.String())
	}
}

// TestServeOutputDeterministic runs the daemon twice on the same seed and
// requires byte-identical datasets without sorting: every round goes
// through the shard group, which returns records in curation order, so
// service mode is as reproducible as a batch run.
func TestServeOutputDeterministic(t *testing.T) {
	serve := func() []byte {
		t.Helper()
		study, err := NewStudy(Options{
			Seed:     37,
			Messages: 400,
			Service: &ServiceConfig{
				PollInterval: 10 * time.Millisecond,
				MaxRounds:    3,
				LiveWaves:    2,
				OnRound: func(info RoundInfo) {
					if info.Err != nil {
						t.Errorf("round %d: %v", info.Round, info.Err)
					}
				},
			},
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
		raw, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := serve(), serve(); !bytes.Equal(a, b) {
		t.Fatalf("two daemons on one seed produced different datasets (%d vs %d bytes)", len(a), len(b))
	}
}

// TestServeKillResume cancels a daemon mid-run, restarts it from the same
// persisted checkpoint store, and asserts the two runs together produce
// exactly the record set of an uninterrupted daemon — nothing duplicated,
// nothing dropped.
func TestServeKillResume(t *testing.T) {
	seed, msgs := int64(31), 400
	mkOpts := func(store CheckpointStore, onRound func(RoundInfo)) Options {
		return Options{
			Seed:     seed,
			Messages: msgs,
			Service: &ServiceConfig{
				PollInterval: 10 * time.Millisecond,
				MaxRounds:    3,
				LiveWaves:    2,
				Checkpoints:  store,
				OnRound:      onRound,
			},
		}
	}

	// Uninterrupted reference daemon.
	ref, err := NewStudy(mkOpts(NewMemCheckpoints(), nil))
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

	// Interrupted daemon: kill after round 2 (initial backlog + wave 1
	// committed), resume from the surviving file-store cursors.
	store, err := NewFileCheckpoints(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx1, kill := context.WithCancel(context.Background())
	defer kill()
	var killed atomic.Bool
	study, err := NewStudy(mkOpts(store, func(info RoundInfo) {
		if info.Round == 2 && !killed.Swap(true) {
			kill()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	first, err := study.Serve(ctx1)
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Load() {
		t.Fatal("daemon completed before the kill fired")
	}
	if len(first.Records) == 0 {
		t.Fatal("killed run committed nothing; kill landed before any round")
	}

	// Resume: same study, same store, fresh context. The remaining wave is
	// still pending inside the simulation.
	second, err := study.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	union := recMultiset(first)
	for fp, n := range recMultiset(second) {
		union[fp] += n
	}
	diffMultisets(t, "killed+resumed vs uninterrupted", union, recMultiset(want))
}

// TestServeRestartNewStudy models a process restart: a brand-new Study
// (fresh simulation from the same seed) pointed at the cursors a completed
// daemon left behind must re-collect nothing — including when the dead
// daemon's LiveWaves would otherwise re-stage already-consumed fixtures.
func TestServeRestartNewStudy(t *testing.T) {
	seed, msgs := int64(37), 300
	store, err := NewFileCheckpoints(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mkOpts := func() Options {
		return Options{
			Seed:     seed,
			Messages: msgs,
			Service: &ServiceConfig{
				PollInterval: 10 * time.Millisecond,
				MaxRounds:    3,
				LiveWaves:    2,
				Checkpoints:  store,
			},
		}
	}

	first, err := NewStudy(mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	ds, err := first.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) == 0 {
		t.Fatal("first daemon produced no records")
	}

	restarted, err := NewStudy(mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	var recollected atomic.Int64
	restarted.opts.Service.OnRound = func(info RoundInfo) {
		recollected.Add(int64(info.NewReports))
	}
	ds2, err := restarted.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := recollected.Load(); n != 0 {
		t.Fatalf("restarted daemon re-collected %d reports, want 0", n)
	}
	if len(ds2.Records) != 0 {
		t.Fatalf("restarted daemon projected %d records, want 0", len(ds2.Records))
	}
}

// TestOptionsValidate pins the descriptive rejections.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring of the error ("" = valid)
	}{
		{"zero value", Options{}, ""},
		{"negative messages", Options{Messages: -1}, "Messages"},
		{"negative step workers", Options{Pipeline: PipelineOptions{StepWorkers: -2}}, "StepWorkers"},
		{"service without streaming", Options{Service: &ServiceConfig{}}, ""},
		{"negative poll interval", Options{
			Service: &ServiceConfig{PollInterval: -time.Second},
		}, "PollInterval"},
		{"valid service", Options{
			Service: &ServiceConfig{LiveWaves: 2},
		}, ""},
		{"durability without service", Options{
			Durability: &DurabilityConfig{Dir: "/tmp/x"},
		}, "Options.Service is nil"},
		{"durability without dir", Options{
			Service:    &ServiceConfig{},
			Durability: &DurabilityConfig{},
		}, "Durability.Dir"},
		{"negative snapshot interval", Options{
			Service:    &ServiceConfig{},
			Durability: &DurabilityConfig{Dir: "/tmp/x", SnapshotInterval: -time.Second},
		}, "SnapshotInterval"},
		{"negative compact threshold", Options{
			Service:    &ServiceConfig{},
			Durability: &DurabilityConfig{Dir: "/tmp/x", CompactThreshold: -1},
		}, "CompactThreshold"},
		{"valid durability", Options{
			Service:    &ServiceConfig{},
			Durability: &DurabilityConfig{Dir: "/tmp/x"},
		}, ""},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// NewStudy surfaces the same rejection without leaking sockets.
	if _, err := NewStudy(Options{Messages: -5}); err == nil {
		t.Fatal("NewStudy accepted negative Messages")
	}
}

// countingStore is a CheckpointStore that records every Save call and
// fails the test when a call commits a cursor whose position did not move.
type countingStore struct {
	t     *testing.T
	inner CheckpointStore
	mu    sync.Mutex
	saves int
}

func (s *countingStore) Load(src string) (Cursor, bool, error) { return s.inner.Load(src) }
func (s *countingStore) All() (map[string]Cursor, error)       { return s.inner.All() }

func (s *countingStore) Save(curs ...Cursor) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves++
	if len(curs) == 0 {
		s.t.Errorf("Save #%d commits no cursor", s.saves)
	}
	for _, c := range curs {
		if prev, ok, _ := s.inner.Load(c.Source); ok && prev.SamePosition(c) {
			s.t.Errorf("Save #%d re-commits unmoved cursor %s", s.saves, c.Source)
		}
	}
	return s.inner.Save(curs...)
}

func (s *countingStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saves
}

// TestServeCommitsOncePerMovedRound pins the commit path without a record
// log: a round that moved any cursor makes exactly one Save carrying only
// the moved cursors, a round that moved none makes no Save, and the
// daemon's own telemetry (checkpoint.commits, serve.stage.*) tells the
// same story.
func TestServeCommitsOncePerMovedRound(t *testing.T) {
	store := &countingStore{t: t, inner: NewMemCheckpoints()}
	const rounds = 4
	var perRound []int // Saves made during each round
	var newReports []int
	study, err := NewStudy(Options{
		Seed:     41,
		Messages: 300,
		Service: &ServiceConfig{
			PollInterval: 10 * time.Millisecond,
			MaxRounds:    rounds,
			LiveWaves:    1, // round 1: backlog, round 2: the wave, then idle
			Checkpoints:  store,
			OnRound: func(info RoundInfo) {
				if info.Err != nil {
					t.Errorf("round %d: %v", info.Round, info.Err)
				}
				prev := 0
				for _, n := range perRound {
					prev += n
				}
				perRound = append(perRound, store.count()-prev)
				newReports = append(newReports, info.NewReports)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	if _, err := study.Serve(context.Background()); err != nil {
		t.Fatal(err)
	}

	moved, idle := 0, 0
	for i, n := range perRound {
		want := 0
		if newReports[i] > 0 {
			want = 1
			moved++
		} else {
			idle++
		}
		if n != want {
			t.Fatalf("round %d (%d new reports) made %d Saves, want %d", i+1, newReports[i], n, want)
		}
	}
	if moved == 0 || idle == 0 {
		t.Fatalf("rounds moved=%d idle=%d; want both kinds", moved, idle)
	}
	all, err := store.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("store holds %d cursors after serving, want 5", len(all))
	}

	snap := study.Stats().Telemetry
	if got := snap.CounterValue("checkpoint.commits"); got != int64(store.count()) {
		t.Fatalf("checkpoint.commits = %d, store saw %d Saves", got, store.count())
	}
	hists := map[string]int64{
		"serve.round_duration": rounds,
		"serve.stage.collect":  rounds,
		"serve.stage.process":  int64(moved),
		"serve.stage.append":   int64(moved),
	}
	for name, want := range hists {
		if got := snap.Histograms[name].Count; got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
}

// TestServeRecordLogCommitsOncePerMovedRound is the record-log variant:
// each round that moved a cursor makes exactly one fsynced log frame and
// no Save, so recordlog.appends and recordlog.fsync each count committing
// rounds plus injected waves, the cursor store's directory never gets a
// cursors.json, and /status serves the five cursors the log committed.
func TestServeRecordLogCommitsOncePerMovedRound(t *testing.T) {
	dir := t.TempDir()
	file, err := NewFileCheckpoints(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{t: t, inner: file}
	reg := NewCollector()
	appends := reg.Counter("recordlog.appends")
	fsyncs := reg.Histogram("recordlog.fsync")
	commits := reg.Counter("checkpoint.commits")
	const rounds = 5
	var study *Study
	var lastAppends, lastFsyncs, lastCommits int64
	var committing, injected int
	var status ServiceStats
	study, err = NewStudy(Options{
		Seed:       41,
		Messages:   300,
		Collector:  reg,
		Durability: &DurabilityConfig{Dir: filepath.Join(dir, "records")},
		Service: &ServiceConfig{
			PollInterval: 5 * time.Millisecond,
			MaxRounds:    rounds,
			LiveWaves:    1, // round 1: backlog, round 2: the wave, round 3: the injection
			Checkpoints:  store,
			OnRound: func(info RoundInfo) {
				if info.Err != nil {
					t.Errorf("round %d: %v", info.Round, info.Err)
				}
				a, f, c := appends.Value(), fsyncs.Stats().Count, commits.Value()
				if a-lastAppends != c-lastCommits || f-lastFsyncs != c-lastCommits {
					t.Errorf("round %d: %d appends, %d fsyncs, %d cursor commits; want one frame per committing round",
						info.Round, a-lastAppends, f-lastFsyncs, c-lastCommits)
				}
				if info.NewReports > 0 && c-lastCommits != 1 {
					t.Errorf("round %d collected %d reports but committed %d times", info.Round, info.NewReports, c-lastCommits)
				}
				committing += int(c - lastCommits)
				if info.Round == 2 {
					if _, err := study.InjectWave(InjectSpec{Seed: 77, Messages: 30}); err != nil {
						t.Errorf("inject: %v", err)
					}
					injected++
				}
				if info.Round == rounds {
					if err := getJSON(study.StatusURL()+"/status", &status); err != nil {
						t.Errorf("GET /status: %v", err)
					}
				}
				lastAppends, lastFsyncs, lastCommits = appends.Value(), fsyncs.Stats().Count, commits.Value()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	if _, err := study.Serve(context.Background()); err != nil {
		t.Fatal(err)
	}

	t.Logf("%d of %d rounds committed, %d injected waves", committing, rounds, injected)
	if committing < 3 || committing == rounds {
		t.Fatalf("%d of %d rounds committed; want the backlog, the wave and the injection, and idle rounds", committing, rounds)
	}
	if a, f := appends.Value(), fsyncs.Stats().Count; a != int64(committing+injected) || f != a {
		t.Errorf("recordlog.appends = %d, recordlog.fsync count = %d; want %d committing rounds + %d injected waves",
			a, f, committing, injected)
	}
	if n := store.count(); n != 0 {
		t.Errorf("the cursor store saw %d Saves; the record log commits the cursors", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", "cursors.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("cursors.json written next to the record log (stat err %v)", err)
	}
	if _, ok := study.Stats().Telemetry.Histograms["serve.stage.cursors"]; ok {
		t.Error("serve.stage.cursors is registered; the cursors commit inside serve.stage.append")
	}
	logged := study.rlog.Cursors()
	if len(status.Cursors) != 5 || len(logged) != 5 {
		t.Fatalf("/status lists %d cursors, the log holds %d; want all five sources", len(status.Cursors), len(logged))
	}
	for src, cur := range logged {
		if !status.Cursors[src].SamePosition(cur) {
			t.Errorf("/status cursor %s = %+v, the log committed %+v", src, status.Cursors[src], cur)
		}
	}
}

// TestServeConcurrentCollectIsolatesFailure breaks Twitter's credentials:
// the concurrent round must keep Twitter's cursor unmoved, commit the
// other four forums, and report an error naming twitter.
func TestServeConcurrentCollectIsolatesFailure(t *testing.T) {
	store := NewMemCheckpoints()
	var roundErr error
	var collected int
	study, err := NewStudy(Options{
		Seed:     43,
		Messages: 400,
		Service: &ServiceConfig{
			PollInterval: 10 * time.Millisecond,
			MaxRounds:    1,
			Checkpoints:  store,
			OnRound: func(info RoundInfo) {
				roundErr, collected = info.Err, info.NewReports
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	study.Sim.TwitterBearer = "wrong-bearer"
	if _, err := study.Serve(context.Background()); err != nil {
		t.Fatal(err)
	}

	if roundErr == nil || !strings.Contains(roundErr.Error(), "twitter") {
		t.Fatalf("round error = %v, want one naming twitter", roundErr)
	}
	if collected == 0 {
		t.Fatal("the healthy forums contributed no reports")
	}
	if cur, ok, _ := store.Load("twitter"); ok {
		t.Fatalf("twitter cursor committed despite failing collection: %+v", cur)
	}
	for _, src := range []string{"reddit", "smishtank", "smishing.eu", "pastebin"} {
		cur, ok, err := store.Load(src)
		if err != nil || !ok || cur.IsZero() {
			t.Fatalf("%s cursor not advanced: ok=%v err=%v cursor=%+v", src, ok, err, cur)
		}
	}
	if n := study.Stats().Telemetry.CounterValue("collect.twitter.errors"); n != 1 {
		t.Fatalf("collect.twitter.errors = %d, want 1", n)
	}
}
