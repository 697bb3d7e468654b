package smishkit

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/checkpoint"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/recordlog"
	"github.com/smishkit/smishkit/internal/report"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// InjectSpec describes one synthetic report wave for load injection — the
// body POST /inject accepts and the argument Study.InjectWave takes. See
// the core type for field semantics.
type InjectSpec = core.InjectSpec

// MaxInjectMessages bounds one injected wave's Messages.
const MaxInjectMessages = core.MaxInjectMessages

// Checkpoint types, re-exported so daemon callers never import internal
// paths.
type (
	// Cursor is one forum's durable collection position.
	Cursor = checkpoint.Cursor
	// CheckpointStore persists cursors across daemon restarts.
	CheckpointStore = checkpoint.Store
)

// NewMemCheckpoints returns an in-memory cursor store (lost on exit).
func NewMemCheckpoints() CheckpointStore { return checkpoint.NewMemStore() }

// NewFileCheckpoints returns a cursor store keeping every forum's cursor
// in one manifest, dir/cursors.json, replaced atomically on each commit;
// it creates dir if needed and resumes a directory written in the earlier
// one-file-per-forum layout. It is the store a restarted daemon resumes
// from.
func NewFileCheckpoints(dir string) (CheckpointStore, error) { return checkpoint.NewFileStore(dir) }

// ServiceConfig tunes Study.Serve, the long-running service mode.
type ServiceConfig struct {
	// PollInterval is the idle time between collection rounds (default 2s).
	PollInterval time.Duration
	// Checkpoints persists the forums' cursors when the study has no record
	// log: each round that moved a cursor commits the moved ones in one
	// atomic Save. With Options.Durability the log commits the cursors with
	// their records, and this store is only read, as the resume point of a
	// source the log holds no cursor for. Default: a fresh in-memory store
	// per Serve call; use NewFileCheckpoints for durability without a log.
	Checkpoints CheckpointStore
	// MaxRounds stops the daemon after that many rounds (0 = run until ctx
	// is cancelled).
	MaxRounds int
	// LiveWaves > 0 seeds half of the fixtures at simulation boot, holds
	// the rest back as that many chronological waves, and releases one
	// before each round after the first, so the daemon observes reports
	// arriving over time. 0 publishes all fixtures up front.
	LiveWaves int
	// OnRound, when non-nil, is called after every round with that round's
	// outcome — the seam tests use to cancel or inspect mid-flight.
	OnRound func(RoundInfo)
	// OnReady, when non-nil, is called exactly once per Serve call, after
	// the status endpoint has bound but before the first collection round,
	// with the endpoint's base URL. It replaces polling Study.StatusURL in
	// a sleep loop; the callback runs synchronously, so it must return
	// promptly (hand the URL to a channel or a file and get out).
	OnReady func(statusURL string)
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.PollInterval == 0 {
		c.PollInterval = 2 * time.Second
	}
	if c.Checkpoints == nil {
		c.Checkpoints = checkpoint.NewMemStore()
	}
	return c
}

// drainTimeout bounds how long a cancelled Serve keeps processing the
// in-flight round before giving up.
const drainTimeout = 30 * time.Second

// RoundInfo is one Serve round's outcome.
type RoundInfo struct {
	// Round numbers from 1.
	Round int
	// NewReports is how many raw reports this round's collectors returned.
	NewReports int
	// Records is the cumulative record count in the projection after this
	// round; a committed round's records are already queryable.
	Records int
	// Err is the round's first collection or processing error (nil on a
	// clean round). A failed round commits nothing; its reports are
	// re-collected next round.
	Err error
}

// ServiceStatsSchemaVersion is the current GET /status JSON layout
// version. External pollers should check it and refuse layouts they don't
// understand; fields are only ever added within a version, never renamed
// or repurposed. Version 2 dropped v1's two projection backlog fields:
// the projection applies each round's batch inside the round, so neither
// could read anything but 0.
const ServiceStatsSchemaVersion = 2

// RoundQuantiles summarizes serve-round wall time in milliseconds, from
// the daemon's round-duration histogram (estimates bounded by the bucket
// layout; Max is exact).
type RoundQuantiles struct {
	// Count is how many completed rounds the quantiles summarize.
	Count int64 `json:"count"`
	// P50/P95/P99 are round-duration percentiles in milliseconds.
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
	// Max is the slowest completed round in milliseconds.
	Max float64 `json:"max_ms"`
}

// ServiceStats is a point-in-time reading of a serving Study — the
// versioned machine-readable schema GET /status serves, so external
// pollers never have to scrape the human-oriented telemetry dump.
type ServiceStats struct {
	// SchemaVersion identifies this JSON layout
	// (ServiceStatsSchemaVersion).
	SchemaVersion int `json:"schema_version"`
	// Rounds completed (failed rounds included).
	Rounds int `json:"rounds"`
	// Reports collected and committed across all rounds.
	Reports int `json:"reports"`
	// Records in the projection dataset.
	Records int `json:"records"`
	// Reports1m maps every forum source to the reports it committed in the
	// trailing 60 seconds; all five sources are always present.
	Reports1m map[string]int `json:"reports_1m"`
	// Reports1mTotal is the trailing-60s committed-report total across all
	// forums — the daemon's recent ingest throughput.
	Reports1mTotal int `json:"reports_1m_total"`
	// InjectedPosts counts forum posts appended through load injection
	// (POST /inject or Study.InjectWave) since the simulation booted.
	InjectedPosts int `json:"injected_posts"`
	// RoundMS summarizes completed-round wall time.
	RoundMS RoundQuantiles `json:"round_ms"`
	// Cursors maps each forum source to its committed cursor.
	Cursors map[string]Cursor `json:"cursors"`
	// StatusURL is the daemon's status endpoint ("" when not serving).
	StatusURL string `json:"status_url"`
}

// recentCommit is one committed round's per-forum report counts, kept for
// the trailing-window throughput fields.
type recentCommit struct {
	at    time.Time
	bySrc map[string]int
	total int
}

// serveState is the live state one Serve call maintains and the status
// endpoint reads.
type serveState struct {
	mu        sync.Mutex
	rounds    int
	reports   int
	recent    []recentCommit // committed rounds, pruned to the last 60s
	statusURL string
	proj      *report.Projection
	cursors   map[string]Cursor    // committed cursor per source
	roundHist *telemetry.Histogram // completed-round wall time
	injected  func() int           // simulation's injected-post total
}

// commitRound records one committed round's moved cursors and per-forum
// counts, and prunes entries that have aged out of the trailing window.
func (st *serveState) commitRound(bySrc map[string]int, total int, moved []Cursor, now time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, c := range moved {
		st.cursors[c.Source] = c
	}
	st.reports += total
	st.recent = append(st.recent, recentCommit{at: now, bySrc: bySrc, total: total})
	st.pruneLocked(now)
}

func (st *serveState) pruneLocked(now time.Time) {
	cutoff := now.Add(-time.Minute)
	keep := st.recent[:0]
	for _, rc := range st.recent {
		if rc.at.After(cutoff) {
			keep = append(keep, rc)
		}
	}
	st.recent = keep
}

func (st *serveState) stats() ServiceStats {
	st.mu.Lock()
	out := ServiceStats{
		SchemaVersion: ServiceStatsSchemaVersion,
		Rounds:        st.rounds,
		Reports:       st.reports,
		Reports1m:     make(map[string]int, len(forum.Sources)),
		StatusURL:     st.statusURL,
		Cursors:       make(map[string]Cursor, len(st.cursors)),
	}
	for src, c := range st.cursors {
		out.Cursors[src] = c.Clone()
	}
	st.pruneLocked(time.Now())
	for _, src := range forum.Sources {
		out.Reports1m[src] = 0
	}
	for _, rc := range st.recent {
		for src, n := range rc.bySrc {
			out.Reports1m[src] += n
		}
		out.Reports1mTotal += rc.total
	}
	proj, hist, injected := st.proj, st.roundHist, st.injected
	st.mu.Unlock()
	if hist != nil {
		hs := hist.Stats()
		out.RoundMS = RoundQuantiles{
			Count: hs.Count,
			P50:   durMillis(hs.P50),
			P95:   durMillis(hs.P95),
			P99:   durMillis(hs.P99),
			Max:   durMillis(hs.Max),
		}
	}
	if injected != nil {
		out.InjectedPosts = injected()
	}
	if proj != nil {
		out.Records = proj.Stats().Records
	}
	return out
}

func durMillis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// InjectWave synthesizes a deterministic report wave and appends it to the
// study's live forum servers — the in-process form of the daemon's
// POST /inject. It works with or without Serve running: a batch study can
// inject then Collect, a serving study's collectors pick the wave up on
// their next round. When the study has a record log the spec is journaled
// first, so a restarted study replays the wave into its fresh simulation
// and the durable cursors pointing into it stay resolvable; a journaling
// failure fails the injection (an unjournaled wave would strand cursors on
// restart). Returns how many posts (reports plus noise) were appended.
func (s *Study) InjectWave(spec InjectSpec) (int, error) {
	if s.rlog != nil {
		if err := s.rlog.AppendInject(spec, time.Now()); err != nil {
			return 0, err
		}
	}
	return s.Sim.Inject(spec)
}

// writeInjectError reports an /inject failure as a JSON error body.
func writeInjectError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// StatusURL returns the base URL of the serving Study's status endpoint
// (GET /status for ServiceStats, GET /debug/telemetry for the metrics
// snapshot), or "" when Serve is not running.
func (s *Study) StatusURL() string {
	st := s.svc
	if st == nil {
		return ""
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.statusURL
}

// Serve runs the study as a long-running daemon: every PollInterval it
// asks all forum collectors, concurrently, for reports newer than their
// committed cursors, pushes the new batch through the study's shard group,
// applies the result to the incrementally-maintained report projection,
// and commits it with the cursors that moved: in one record-log frame, or
// without a log in one CheckpointStore Save. Rounds are atomic — a
// collector or pipeline failure discards the round's partial progress and
// leaves every cursor where it was, so an interrupted daemon resumed from
// the same log or store re-collects exactly the reports it never
// committed (no duplicates, no holes).
//
// Cancelling ctx is the clean shutdown: the in-flight round is drained
// (for at most 30s) and the projected dataset so far is returned with a
// nil error.
//
// The returned dataset is read-only. Its Records is the projection's
// view of the committed records, not a copy: with a record log it is the
// log's own list, so the daemon holds one copy of each record from the
// append to this return. No record is modified once committed; callers
// must not modify one either (sort or filter a slice of their own).
func (s *Study) Serve(ctx context.Context) (*Dataset, error) {
	var cfg ServiceConfig
	if s.opts.Service != nil {
		cfg = *s.opts.Service
	}
	cfg = cfg.withDefaults()

	reg := s.Pipe.Telemetry()
	// The loop keeps the live cursors; st.cursors the committed ones.
	cursors, err := resumeCursors(s.rlog, cfg.Checkpoints)
	if err != nil {
		return nil, err
	}
	st := &serveState{cursors: maps.Clone(cursors)}
	// With a record log the projection indexes the log's own records, so
	// the daemon holds one in-memory copy of each committed record.
	if s.rlog != nil {
		st.proj = report.NewProjectionOver(reg, s.rlog)
	} else {
		st.proj = report.NewProjection(reg, 0)
	}
	st.roundHist = reg.Histogram("serve.round_duration")
	st.injected = s.Sim.InjectedPosts
	defer st.proj.Close()
	s.svc = st

	// drainBase survives ctx cancellation, so the seed below applies even
	// when Serve starts on a cancelled ctx, and a cancelled round finishes
	// processing and commits instead of tearing mid-batch; drainTimeout
	// per round bounds the overstay.
	drainBase := context.WithoutCancel(ctx)

	// Seed the projection with the record log's replayed dataset before the
	// status endpoint binds, so /query/* and /status never report an empty
	// dataset that durable history contradicts. The seed needs no
	// enrichment: these records were enriched before the previous process
	// died — that is the whole point of the log. Nor does it copy them: the
	// apply indexes the log's records in place.
	if s.rlog != nil {
		seed := s.rlog.Committed()
		if len(seed.Records) > 0 || seed.DecoysRejected != 0 || seed.EmptyDropped != 0 {
			if err := st.proj.Submit(drainBase, seed, time.Now()); err != nil {
				return nil, fmt.Errorf("smishkit: seed projection from record log: %w", err)
			}
		}
	}

	// Status endpoint: /status + /debug/telemetry + /inject on an ephemeral
	// loopback port, alive for the duration of this Serve call.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st.stats())
	})
	mux.Handle("GET /debug/telemetry", telemetry.Handler(reg))
	// Read-only query layer over the projected dataset, served from the
	// index each round's apply keeps current (replayed history included
	// when the study has a record log).
	mux.Handle("GET /query/reports", st.proj.Query().ReportsHandler())
	mux.Handle("GET /query/summary", st.proj.Query().SummaryHandler())
	// Load injection: POST /inject appends a synthetic report wave to the
	// live forum servers (the seam scripts/durgate drives). The wave is visible
	// to the daemon's own collectors on its next round, closing the loop.
	mux.HandleFunc("POST /inject", func(w http.ResponseWriter, r *http.Request) {
		var spec InjectSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
			writeInjectError(w, http.StatusBadRequest, fmt.Errorf("decode inject spec: %w", err))
			return
		}
		n, err := s.InjectWave(spec)
		if err != nil {
			writeInjectError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\n  \"appended_posts\": %d\n}\n", n)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("smishkit: bind status endpoint: %w", err)
	}
	statusSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = statusSrv.Serve(ln) }()
	defer func() { _ = statusSrv.Close() }()
	st.mu.Lock()
	st.statusURL = "http://" + ln.Addr().String()
	st.mu.Unlock()
	if cfg.OnReady != nil {
		cfg.OnReady(st.statusURL)
	}

	collectors, err := s.incrementalCollectors()
	if err != nil {
		return nil, err
	}

	lagGauges := make(map[string]*telemetry.Gauge, len(forum.Sources))
	for _, src := range forum.Sources {
		lagGauges[src] = reg.Gauge("collect.cursor_lag." + src)
	}
	setLag := func() {
		now := time.Now()
		for _, src := range forum.Sources {
			if cur, ok := cursors[src]; ok && !cur.Updated.IsZero() {
				lag := now.Sub(cur.Updated)
				if lag < 0 {
					lag = 0
				}
				lagGauges[src].Set(int64(lag / time.Second))
			}
		}
	}

	// Per-forum counters and the round's stage instruments, created once so
	// the loop only updates them.
	srcErrors := make([]*telemetry.Counter, len(collectors))
	srcNew := make([]*telemetry.Counter, len(collectors))
	for i := range collectors {
		srcErrors[i] = reg.Counter("collect." + forum.Sources[i] + ".errors")
		srcNew[i] = reg.Counter("collect." + forum.Sources[i] + ".new_reports")
	}
	stageCollect := reg.Histogram("serve.stage.collect")
	stageProcess := reg.Histogram("serve.stage.process")
	stageAppend := reg.Histogram("serve.stage.append")
	commits := reg.Counter("checkpoint.commits")

	released := 0
	for round := 1; ; round++ {
		if cfg.LiveWaves > 0 && round > 1 && released < cfg.LiveWaves {
			if s.Sim.ReleaseWave() {
				released++
			}
		}

		info := RoundInfo{Round: round}
		sp := reg.StartSpan("serve.round")

		// Collect every forum concurrently, each as an independent atomic
		// stage: a failing collector contributes nothing this round and
		// keeps its cursor. The batch concatenates the stages in
		// forum.Sources order, so its contents and order do not depend on
		// which collector finishes first.
		collectStart := time.Now()
		stages := make([]collectStage, len(collectors))
		var wg sync.WaitGroup
		for i, ic := range collectors {
			wg.Add(1)
			go func(stg *collectStage, ic forum.IncrementalCollector, cur Cursor) {
				defer wg.Done()
				stg.next, stg.err = ic.CollectSince(ctx, cur, func(r RawReport) error {
					stg.reports = append(stg.reports, r)
					return nil
				})
			}(&stages[i], ic, cursors[forum.Sources[i]])
		}
		wg.Wait()
		var batch []RawReport
		staged := make(map[string]Cursor, len(collectors))
		stagedN := make(map[string]int, len(collectors))
		for i, stg := range stages {
			src := forum.Sources[i]
			if stg.err != nil {
				srcErrors[i].Inc()
				if info.Err == nil {
					info.Err = fmt.Errorf("smishkit: collect %s: %w", src, stg.err)
				}
				continue
			}
			srcNew[i].Add(int64(len(stg.reports)))
			batch = append(batch, stg.reports...)
			staged[src] = stg.next
			stagedN[src] = len(stg.reports)
		}
		stageCollect.Observe(time.Since(collectStart))

		if ctx.Err() != nil {
			// Cancelled mid-collection: the round never completed, so none
			// of its stages commit; a resumed daemon re-collects them.
			sp.End()
			break
		}

		// Process the round's batch, then commit it with the cursors it moved.
		collectedAt := time.Now()
		var moved []Cursor
		for _, src := range forum.Sources {
			if cur, ok := staged[src]; ok && !cur.SamePosition(cursors[src]) {
				moved = append(moved, cur)
			}
		}
		var err error
		if len(batch) > 0 || len(moved) > 0 {
			procCtx, cancel := context.WithTimeout(drainBase, drainTimeout)
			ds := &Dataset{}
			if len(batch) > 0 {
				// The shard group scatters results back into curation order
				// before the commit, for any shard count.
				ds, err = s.group.Run(procCtx, batch)
				stageProcess.Observe(time.Since(collectedAt))
			}
			if err == nil {
				appendStart := time.Now()
				if s.rlog != nil {
					// The round's one durable write: records and moved
					// cursors in one fsynced frame, before the projection
					// sees the records. The projection indexes the log by
					// position, so a Submit that fails after the Append is
					// covered by the next apply.
					ds, err = s.rlog.Append(ds, collectedAt, moved...)
				}
				if err == nil && len(batch) > 0 {
					err = st.proj.Submit(procCtx, ds, collectedAt)
				}
				if err == nil && s.rlog == nil && len(moved) > 0 {
					err = cfg.Checkpoints.Save(moved...)
				}
				stageAppend.Observe(time.Since(appendStart))
			}
			cancel()
		}
		if err != nil {
			// No cursor advances: the next round re-collects the reports,
			// and a record log drops the ones it already holds.
			if info.Err == nil {
				info.Err = fmt.Errorf("smishkit: round %d: %w", round, err)
			}
		} else {
			info.NewReports = len(batch)
			if len(moved) > 0 {
				commits.Inc()
			}
			// The live cursors take the staged ones, moved or not, so their
			// Updated stamps keep the lag gauges current on empty rounds too.
			for src, cur := range staged {
				cursors[src] = cur
			}
			st.commitRound(stagedN, len(batch), moved, time.Now())
		}
		setLag()
		st.roundHist.Observe(sp.End())

		st.mu.Lock()
		st.rounds = round
		st.mu.Unlock()
		info.Records = st.proj.Stats().Records
		if cfg.OnRound != nil {
			cfg.OnRound(info)
		}

		if cfg.MaxRounds > 0 && round >= cfg.MaxRounds {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(cfg.PollInterval):
		}
		if ctx.Err() != nil {
			break
		}
	}

	// A clean shutdown leaves a fresh snapshot, so the next open replays an
	// empty tail instead of the whole log.
	if s.rlog != nil {
		if err := s.rlog.Snapshot(); err != nil {
			return st.proj.Dataset(), fmt.Errorf("smishkit: final record-log snapshot: %w", err)
		}
	}
	return st.proj.Dataset(), nil
}

// resumeCursors returns the committed cursor of every source that has one:
// the record log's, else the store's. The fallback resumes a data
// directory written when cursors lived in their own file.
func resumeCursors(rlog *recordlog.Log, store CheckpointStore) (map[string]Cursor, error) {
	out := map[string]Cursor{}
	if rlog != nil {
		out = rlog.Cursors()
	}
	if store == nil {
		return out, nil
	}
	for _, src := range forum.Sources {
		if _, ok := out[src]; ok {
			continue
		}
		if cur, ok, err := store.Load(src); err != nil {
			return nil, fmt.Errorf("smishkit: load checkpoint %s: %w", src, err)
		} else if ok {
			out[src] = cur
		}
	}
	return out, nil
}

// collectStage is one forum's share of a round: the reports its collector
// returned and the cursor to commit, or the error that voids both.
type collectStage struct {
	reports []RawReport
	next    Cursor
	err     error
}

// incrementalCollectors returns the simulation's collectors as
// IncrementalCollectors, in forum.Sources order.
func (s *Study) incrementalCollectors() ([]forum.IncrementalCollector, error) {
	cols := s.Sim.Collectors()
	out := make([]forum.IncrementalCollector, 0, len(cols))
	for _, c := range cols {
		ic, ok := c.(forum.IncrementalCollector)
		if !ok {
			return nil, fmt.Errorf("smishkit: collector %s is not incremental", c.Name())
		}
		out = append(out, ic)
	}
	return out, nil
}
