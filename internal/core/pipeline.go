package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smishkit/smishkit/internal/annotate"
	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/extract"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/screenshot"
	"github.com/smishkit/smishkit/internal/senderid"
	"github.com/smishkit/smishkit/internal/shortener"
	"github.com/smishkit/smishkit/internal/telemetry"
	"github.com/smishkit/smishkit/internal/urlinfo"
)

// DefaultEnrichWorkers is the record-level enrichment width when
// Options.EnrichWorkers is 0: twice batchmux's default Window of 32 keys. A
// batch window flushes on size only when at least Window records are in
// flight; with fewer, every window waits out its flush timer. Twice the
// window keeps one window filling while the last one's bulk call is out.
// Upstream concurrency is bounded by netutil's per-host connection cap, not
// by this width.
const DefaultEnrichWorkers = 64

// Options tunes the pipeline.
type Options struct {
	// Extractor reads screenshot attachments; defaults to StructuredVision
	// (the rung the paper settled on in §3.2). Like Telemetry and
	// Streaming, it is process-local: it does not cross to a shard worker
	// process, which runs the default.
	Extractor screenshot.Extractor `json:"-"`
	// EnrichWorkers is the record-level enrichment fan-out width (0 selects
	// DefaultEnrichWorkers; negative is a construction error).
	EnrichWorkers int
	// StepWorkers bounds intra-record enrichment parallelism. After
	// shortener expansion settles (the only true sequencing edge — it
	// produces FinalURL/Domain), the independent enrichment families (HLR,
	// WHOIS, CT, the pDNS→AS chain, and the three AV endpoints) run
	// concurrently under at most this many goroutines per record. 0 selects
	// the default (4); 1 reproduces the historical fully sequential order;
	// negative is a construction error.
	StepWorkers int
	// Streaming does nothing: Run always runs its stages in turn, so record
	// order is curation order.
	//
	// Deprecated: the overlapped mode this selected is gone; leave it unset.
	Streaming bool `json:"-"`
	// Telemetry receives per-stage spans, per-record curation outcomes,
	// and enrichment latency. Nil gets a private registry so
	// Pipeline.Telemetry always works.
	Telemetry *telemetry.Registry `json:"-"`

	// RecordBudget bounds one record's total enrichment wall time; past it
	// the record's remaining service calls fail fast and degrade their
	// fields (0 = unbounded).
	RecordBudget time.Duration
	// CallTimeout bounds each individual service call, so one hung
	// connection can't consume a whole record budget (0 = unbounded).
	CallTimeout time.Duration
	// AbortFailureRate aborts the run once more than this fraction of all
	// service calls have failed — degradation is for partial outages, not
	// a world where every service is down. 0 selects the default (0.9);
	// negative disables the abort.
	AbortFailureRate float64
}

// minAbortCalls is the call sample below which the failure-rate abort
// never triggers.
const minAbortCalls = 50

func (o Options) withDefaults() Options {
	if o.Extractor == nil {
		o.Extractor = screenshot.StructuredVision{}
	}
	if o.EnrichWorkers == 0 {
		o.EnrichWorkers = DefaultEnrichWorkers
	}
	if o.StepWorkers == 0 {
		o.StepWorkers = 4
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.NewRegistry()
	}
	if o.AbortFailureRate == 0 {
		o.AbortFailureRate = 0.9
	}
	return o
}

// Pipeline runs collection output through curation, enrichment, and
// annotation.
type Pipeline struct {
	ops  Ops
	opts Options
	tel  *telemetry.Registry
	met  pipelineMetrics
}

// pipelineMetrics pre-resolves the hot-path instruments so per-record
// increments are pointer-chasing only (no registry lookups, no allocs).
type pipelineMetrics struct {
	curateOK    *telemetry.Counter
	curateDecoy *telemetry.Counter
	curateEmpty *telemetry.Counter
	enriched    *telemetry.Counter
	annotated   *telemetry.Counter
	busyWorkers *telemetry.Gauge
	recordLat   *telemetry.Histogram

	degradedFields *telemetry.Counter
	degradedRecs   *telemetry.Counter

	// stepPar tracks how many intra-record enrichment families are in
	// flight across the whole pool — the live parallelism the DAG scatter
	// achieves on top of the record-level fan-out.
	stepPar *telemetry.Gauge
	// famLat holds one latency histogram per enrichment family
	// ("pipeline.enrich.family.<name>"). Built once at construction and
	// never mutated, so concurrent reads are lock-free.
	famLat map[string]*telemetry.Histogram
}

// familyNames are the independent arms of the per-record enrichment DAG.
// The slice order is the historical sequential call order, which the
// scatter preserves exactly when StepWorkers is 1.
var familyNames = []string{"hlr", "whois", "ct", "pdns", "vt", "gsb", "gsb_status"}

// NewPipeline builds a pipeline over the given service clients.
func NewPipeline(services Services, opts Options) (*Pipeline, error) {
	return NewPipelineOver(OpsOf(services), opts)
}

// NewPipelineOver builds a pipeline over ops; an op with a nil Call is an
// absent service, whose stage the pipeline skips. It fails on invalid
// options (currently negative worker counts) so facades can tear down
// already-booted resources instead of deferring the blowup to Run.
func NewPipelineOver(ops Ops, opts Options) (*Pipeline, error) {
	if opts.EnrichWorkers < 0 {
		return nil, errors.New("core: EnrichWorkers must not be negative")
	}
	if opts.StepWorkers < 0 {
		return nil, errors.New("core: StepWorkers must not be negative")
	}
	opts = opts.withDefaults()
	tel := opts.Telemetry
	famLat := make(map[string]*telemetry.Histogram, len(familyNames))
	for _, name := range familyNames {
		famLat[name] = tel.Histogram("pipeline.enrich.family." + name)
	}
	return &Pipeline{
		ops:  ops,
		opts: opts,
		tel:  tel,
		met: pipelineMetrics{
			curateOK:    tel.Counter("pipeline.curate.ok"),
			curateDecoy: tel.Counter("pipeline.curate.decoy"),
			curateEmpty: tel.Counter("pipeline.curate.empty"),
			enriched:    tel.Counter("pipeline.enrich.records"),
			annotated:   tel.Counter("pipeline.annotate.records"),
			busyWorkers: tel.Gauge("pipeline.enrich.busy_workers"),
			recordLat:   tel.Histogram("pipeline.enrich.record_latency"),

			degradedFields: tel.Counter("pipeline.enrich.degraded_fields"),
			degradedRecs:   tel.Counter("pipeline.enrich.degraded_records"),

			stepPar: tel.Gauge("pipeline.record.step_par"),
			famLat:  famLat,
		},
	}, nil
}

// Telemetry returns the registry the pipeline records into.
func (p *Pipeline) Telemetry() *telemetry.Registry { return p.tel }

// Options returns the options the pipeline runs with, defaults filled in.
func (p *Pipeline) Options() Options { return p.opts }

// Curate turns raw forum reports into records: it reads screenshot
// attachments with the configured extractor, rejects non-SMS decoys, pulls
// quoted SMS texts out of post bodies, and normalizes the four variables
// (§3.2). Reports whose attachment is unreadable for the extractor count
// as EmptyDropped — the pytesseract failure mode.
//
// Extraction (screenshot decode + OCR) dominates curation and is pure per
// report, so it fans out over GOMAXPROCS workers into an index-addressed
// scratch slice; the reduce below stays sequential, which keeps record
// order and counter totals bit-identical to a serial sweep.
func (p *Pipeline) Curate(reports []forum.RawReport) *Dataset {
	sp := p.tel.StartSpan("curate")
	defer sp.End()
	ds := &Dataset{
		// One up-front allocation sized for the common case (most reports
		// curate OK), so the reduce loop never regrows the record slice.
		Records:       make([]Record, 0, len(reports)),
		PostsByForum:  make(map[corpus.Forum]int, len(corpus.Forums)),
		ImagesByForum: make(map[corpus.Forum]int, len(corpus.Forums)),
	}
	results := make([]curateResult, len(reports))
	parallelFor(context.Background(), len(reports), runtime.GOMAXPROCS(0), func(i int) {
		results[i].rec, results[i].status = p.curateOne(reports[i])
	})
	for i := range reports {
		p.reduceCurated(ds, &reports[i], &results[i])
	}
	return ds
}

// curateResult is one report's curation outcome, produced by the parallel
// extraction pass and folded into the Dataset by the sequential reduce.
type curateResult struct {
	rec    Record
	status curationStatus
}

// reduceCurated folds one curated report into the dataset — the
// order-sensitive half of Curate.
func (p *Pipeline) reduceCurated(ds *Dataset, rep *forum.RawReport, res *curateResult) {
	ds.PostsByForum[rep.Forum]++
	switch res.status {
	case curatedOK:
		p.met.curateOK.Inc()
		ds.Records = append(ds.Records, res.rec)
		if res.rec.FromImage {
			ds.ImagesByForum[rep.Forum]++
		}
	case curatedDecoy:
		p.met.curateDecoy.Inc()
		if rep.HasAttachment() {
			ds.ImagesByForum[rep.Forum]++
		}
		ds.DecoysRejected++
	case curatedEmpty:
		p.met.curateEmpty.Inc()
		ds.EmptyDropped++
	}
}

// parallelFor runs fn(0..n-1) across at most workers goroutines. Work is
// handed out by an atomic cursor, so the per-item overhead is one atomic
// add — no channel send per index. A dead ctx stops workers between
// iterations; the indexes already started still complete.
func parallelFor(ctx context.Context, n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

type curationStatus int

const (
	curatedOK curationStatus = iota
	curatedDecoy
	curatedEmpty
)

func (p *Pipeline) curateOne(rep forum.RawReport) (Record, curationStatus) {
	var text, sender, stamp, rawURL string
	fromImage := false

	switch {
	case rep.HasAttachment():
		img, err := screenshot.Decode(rep.Attachment)
		if err != nil {
			return Record{}, curatedEmpty
		}
		ext, err := p.opts.Extractor.Extract(img)
		if err != nil {
			return Record{}, curatedEmpty // engine could not read the image
		}
		if !ext.OK {
			return Record{}, curatedDecoy // not an SMS screenshot
		}
		text, sender, stamp, rawURL = ext.Text, ext.Sender, ext.Timestamp, ext.URL
		fromImage = true
		// Naive engines return the whole grid as text with no structure;
		// a purely-poster text yields no usable SMS either way.
	case rep.SMSText != "":
		text, sender, stamp = rep.SMSText, rep.SenderID, rep.Timestamp
	default:
		// Twitter/Reddit text post: the SMS may be quoted in the body.
		text, sender = parseQuotedBody(rep.Body)
		if text == "" {
			return Record{}, curatedEmpty // awareness post / chatter
		}
	}
	if strings.TrimSpace(text) == "" {
		return Record{}, curatedEmpty
	}

	fields := extract.Assemble(text, sender, stamp, rawURL, rep.PostedAt)
	rec := Record{
		ID:         rep.PostID,
		Forum:      rep.Forum,
		PostedAt:   rep.PostedAt,
		FromImage:  fromImage,
		Text:       fields.Text,
		SenderRaw:  fields.Sender,
		SenderKind: fields.SenderKind,
		Timestamp:  fields.Timestamp,
		ShownURL:   fields.PrimaryURL(),
	}
	if info, err := urlinfo.Parse(rec.ShownURL); err == nil {
		rec.Shortener = info.Shortener
	}
	return rec, curatedOK
}

// parseQuotedBody recovers `commentary: "SMS TEXT" from SENDER` bodies.
func parseQuotedBody(body string) (text, sender string) {
	start := strings.Index(body, `"`)
	if start < 0 {
		return "", ""
	}
	end := strings.LastIndex(body, `"`)
	if end <= start {
		return "", ""
	}
	text = body[start+1 : end]
	rest := body[end+1:]
	if i := strings.Index(rest, " from "); i >= 0 {
		sender = strings.TrimSpace(rest[i+len(" from "):])
	}
	return text, sender
}

// enrichState is one Enrich run's shared failure accounting: the
// run-level abort threshold is computed over every service call that
// actually reached a service (short-circuited calls are excluded — see
// ErrShortCircuited).
type enrichState struct {
	calls atomic.Int64
	fails atomic.Int64
}

// abortErr reports whether the run has crossed the failure-rate abort
// threshold. Degradation is for partial outages; when essentially every
// call fails, finishing the sweep would only produce an empty dataset.
func (p *Pipeline) abortErr(st *enrichState) error {
	rate := p.opts.AbortFailureRate
	if rate < 0 {
		return nil
	}
	calls := st.calls.Load()
	if calls < minAbortCalls {
		return nil
	}
	if fails := st.fails.Load(); float64(fails)/float64(calls) > rate {
		return fmt.Errorf("core: enrichment aborted: %d of %d service calls failed (rate above %.2f)",
			fails, calls, rate)
	}
	return nil
}

// Enrich fans records out over the service clients: shortener expansion,
// HLR lookups on phone senders, and WHOIS / CT / passive-DNS / AV lookups
// on landing URLs. It runs min(EnrichWorkers, len(ds.Records)) record
// workers. A failing service degrades that record's fields
// (recorded in Record.EnrichmentErrors), not the run; the run stops at
// the first record that sees ctx die or the overall call failure rate
// cross Options.AbortFailureRate, and returns that error. A sweep that
// finished every record returns nil.
func (p *Pipeline) Enrich(ctx context.Context, ds *Dataset) error {
	sp := p.tel.StartSpan("enrich")
	defer sp.End()
	ctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	st := &enrichState{}
	var done atomic.Int64
	parallelFor(ctx, len(ds.Records), p.opts.EnrichWorkers, func(i int) {
		rec := &ds.Records[i]
		p.met.busyWorkers.Add(1)
		start := time.Now()
		err := p.enrichOne(ctx, st, rec)
		p.met.recordLat.Observe(time.Since(start))
		p.met.busyWorkers.Add(-1)
		if err == nil {
			err = p.abortErr(st)
		}
		if err != nil {
			stop(err)
			return
		}
		if rec.Degraded() {
			p.met.degradedRecs.Inc()
		}
		p.met.enriched.Inc()
		done.Add(1)
	})
	if done.Load() == int64(len(ds.Records)) {
		return nil
	}
	return context.Cause(ctx)
}

// recordRun is one record's enrichment in flight: the run's failure
// accounting, the record, and mu, which serializes the only record state
// shared between concurrently scattered families. Every other field a
// step writes belongs to exactly one family.
type recordRun struct {
	p   *Pipeline
	st  *enrichState
	rec *Record
	mu  sync.Mutex
}

// enrichStep calls op on k under the per-call timeout and hands the answer
// to use, which stores it and returns the error that counts as a failure
// (nil for an answer, even a negative one). A failure degrades op.Field of
// the record, appended to Record.EnrichmentErrors and counted in
// telemetry, instead of propagating; the return value reports whether
// the field resolved.
func enrichStep[K, V any](r *recordRun, ctx context.Context, op Op[K, V], k K, use func(V, error) error) bool {
	callCtx, cancel := ctx, context.CancelFunc(nil)
	if r.p.opts.CallTimeout > 0 {
		callCtx, cancel = context.WithTimeout(ctx, r.p.opts.CallTimeout)
	}
	err := use(op.Call(callCtx, k))
	if cancel != nil {
		cancel()
	}
	if err == nil {
		r.st.calls.Add(1)
		return true
	}
	// A short-circuited call never reached the service: the field is still
	// lost, but the failure it echoes was counted when the guard tripped,
	// so it stays out of the abort ratio — an open breaker shedding load
	// must not read as "everything is failing".
	if !errors.Is(err, ErrShortCircuited) {
		r.st.calls.Add(1)
		r.st.fails.Add(1)
	}
	r.p.met.degradedFields.Inc()
	r.mu.Lock()
	r.rec.EnrichmentErrors = append(r.rec.EnrichmentErrors, EnrichmentError{
		Field: op.Field, Service: op.Service, Err: err.Error(),
	})
	r.mu.Unlock()
	return false
}

// enrichFamily is one independent arm of the per-record enrichment DAG.
// Everything run touches depends only on state settled before the scatter
// (the committed FinalURL/Domain and immutable curation fields), so
// families are safe to execute concurrently: each writes a disjoint set of
// record fields and routes the shared EnrichmentErrors slice through
// recordRun's lock.
type enrichFamily struct {
	name string
	run  func(context.Context)
}

// runFamily times one family and tracks the live intra-record parallelism.
func (p *Pipeline) runFamily(ctx context.Context, f *enrichFamily) {
	p.met.stepPar.Add(1)
	start := time.Now()
	f.run(ctx)
	p.met.famLat[f.name].Observe(time.Since(start))
	p.met.stepPar.Add(-1)
}

// enrichOne resolves every enrichment source for one record. A failing
// service degrades the record's field, not the run; only the parent
// context dying aborts. Options.RecordBudget bounds the record's total
// enrichment time — past it, the remaining calls fail fast and degrade,
// which is why the budget context is distinguished from parent here. The
// budget spans the whole record regardless of StepWorkers: families
// running in parallel share one deadline, so widening the scatter never
// widens the time box.
//
// Sequencing is an explicit two-phase DAG: shortener expansion is the only
// true edge (it produces FinalURL/Domain, which every domain- and
// URL-keyed family reads), so it runs first and commits once; the
// remaining families are mutually independent and scatter under
// Options.StepWorkers.
func (p *Pipeline) enrichOne(parent context.Context, st *enrichState, rec *Record) error {
	ctx := parent
	if p.opts.RecordBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, p.opts.RecordBudget)
		defer cancel()
	}
	r := &recordRun{p: p, st: st, rec: rec}

	// 1. Shortener expansion: resolve into a local, commit once. A failed
	// expansion must not leave FinalURL/Domain half-rewritten, so the
	// record's URL fields only change after the expansion settles.
	finalURL := rec.ShownURL
	if rec.Shortener != "" && p.ops.Expand.Call != nil {
		if service, code := splitShort(rec.ShownURL); service != "" && code != "" {
			// Unless the expansion answers, the landing URL is unknown:
			// degrade rather than mislabel the shortener host as the
			// landing domain.
			finalURL = ""
			enrichStep(r, ctx, p.ops.Expand, ShortLink{Service: service, Code: code}, func(target string, err error) error {
				if errors.Is(err, shortener.ErrNotFound) || errors.Is(err, shortener.ErrTakenDown) {
					return nil // chain lost (§3.3.5)
				}
				if err == nil {
					finalURL = target
				}
				return err
			})
		}
	}
	rec.FinalURL = finalURL
	if rec.FinalURL != "" {
		if info, err := urlinfo.Parse(rec.FinalURL); err == nil {
			rec.Domain = info.Domain
		}
	}
	if err := parent.Err(); err != nil {
		return err
	}

	// 2. The independent families, scattered up to StepWorkers wide.
	fams := make([]enrichFamily, 0, len(familyNames))
	if rec.SenderKind == senderid.KindPhone && p.ops.HLR.Call != nil {
		fams = append(fams, enrichFamily{"hlr", func(c context.Context) {
			enrichStep(r, c, p.ops.HLR, rec.SenderRaw, func(res hlr.Result, err error) error {
				if err == nil {
					rec.HLR, rec.HLRDone = res, true
				}
				return err
			})
		}})
	}
	if rec.Domain != "" && !isSharedPlatform(rec) {
		if p.ops.Whois.Call != nil {
			fams = append(fams, enrichFamily{"whois", func(c context.Context) {
				enrichStep(r, c, p.ops.Whois, rec.Domain, func(a WhoisAnswer, err error) error {
					if err == nil {
						rec.Whois, rec.WhoisFound = a.Record, a.Found
					}
					return err
				})
			}})
		}
		if p.ops.CT.Call != nil {
			fams = append(fams, enrichFamily{"ct", func(c context.Context) {
				enrichStep(r, c, p.ops.CT, rec.Domain, func(sum ctlog.Summary, err error) error {
					if err == nil {
						rec.CT = sum
					}
					return err
				})
			}})
		}
		if p.ops.PDNS.Call != nil && p.ops.ASN.Call != nil {
			// The pDNS→AS chain is internally sequential (the AS lookups
			// need the resolutions) but independent of every other family.
			fams = append(fams, enrichFamily{"pdns", func(c context.Context) {
				if !enrichStep(r, c, p.ops.PDNS, rec.Domain, func(obs []dnsdb.Observation, err error) error {
					if err == nil {
						rec.PDNS = obs
					}
					return err
				}) {
					return
				}
				// Cross-record IP dedup lives in the enrichcache layer (the
				// same IP resolved for every record sharing a domain used to
				// re-query here); within one record a linear pair scan keeps
				// the AS list unique without a per-record map allocation.
				for _, o := range rec.PDNS {
					if !enrichStep(r, c, p.ops.ASN, o.IP, func(info dnsdb.ASInfo, err error) error {
						if errors.Is(err, dnsdb.ErrNoRoute) {
							return nil // unrouted IP: an answer, not a failure
						}
						if err == nil && !hasASPair(rec.ASNames, rec.ASCountries, info.Name, info.Country) {
							rec.ASNames = append(rec.ASNames, info.Name)
							rec.ASCountries = append(rec.ASCountries, info.Country)
						}
						return err
					}) {
						return // one degraded AS list; don't hammer a failing service per IP
					}
				}
			}})
		}
	}
	// AV verdicts on the landing URL — three independent endpoints; each
	// degrades alone.
	if rec.FinalURL != "" {
		if p.ops.Scan.Call != nil {
			fams = append(fams, enrichFamily{"vt", func(c context.Context) {
				enrichStep(r, c, p.ops.Scan, rec.FinalURL, func(scan avscan.Report, err error) error {
					if err == nil {
						rec.VTMalicious, rec.VTSuspicious = scan.Stats.Malicious, scan.Stats.Suspicious
					}
					return err
				})
			}})
		}
		if p.ops.GSB.Call != nil {
			fams = append(fams, enrichFamily{"gsb", func(c context.Context) {
				enrichStep(r, c, p.ops.GSB, rec.FinalURL, func(gsb avscan.GSBResult, err error) error {
					if err == nil {
						rec.GSBMatched = gsb.Matched
					}
					return err
				})
			}})
		}
		if p.ops.Transparency.Call != nil {
			fams = append(fams, enrichFamily{"gsb_status", func(c context.Context) {
				enrichStep(r, c, p.ops.Transparency, rec.FinalURL, func(a TransparencyAnswer, err error) error {
					if err == nil {
						rec.GSBBlocked = a.Blocked
						if !a.Blocked {
							rec.GSBStatus = string(a.Result.Status)
						}
					}
					return err
				})
			}})
		}
	}
	// The scatter checks parent between families, so a dead run stops
	// scheduling new service calls; families already started finish,
	// failing fast against their dead contexts and degrading their fields.
	// Width 1 runs the families inline in slice order, the historical
	// sequential order.
	parallelFor(parent, len(fams), p.opts.StepWorkers, func(i int) { p.runFamily(ctx, &fams[i]) })
	// Concurrent families append in completion order; order the list by
	// family so a degraded record's bytes do not depend on scheduling.
	slices.SortStableFunc(rec.EnrichmentErrors, func(a, b EnrichmentError) int {
		return errorRank(a.Field) - errorRank(b.Field)
	})
	return parent.Err()
}

// errorRank places an EnrichmentError's field in the sequential call order:
// the shortener expansion first, then the families in familyNames order,
// with the AS lookups inside the pdns chain.
func errorRank(field string) int {
	if field == "as_names" {
		field = "pdns"
	}
	for i, name := range familyNames {
		if name == field {
			return i + 1
		}
	}
	return 0 // final_url, settled before the scatter
}

// hasASPair reports whether the parallel name/country lists already hold
// the pair; records see at most a handful of ASes, so a scan beats a map.
func hasASPair(names, countries []string, name, country string) bool {
	for i := range names {
		if names[i] == name && countries[i] == country {
			return true
		}
	}
	return false
}

// isSharedPlatform reports whether the record's domain belongs to someone
// else's infrastructure (shorteners, chat deep links), where WHOIS/CT/pDNS
// describe the platform rather than the scammer.
func isSharedPlatform(rec *Record) bool {
	if _, isShort := urlinfo.Shorteners[rec.Domain]; isShort {
		return true
	}
	info, err := urlinfo.Parse(rec.ShownURL)
	return err == nil && info.Messaging != ""
}

// splitShort decomposes "https://bit.ly/abc" into ("bit.ly", "abc"),
// dropping any query string or fragment after the code.
func splitShort(u string) (service, code string) {
	s := u
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	host, rest, ok := strings.Cut(s, "/")
	if !ok {
		return "", ""
	}
	code, _, _ = strings.Cut(rest, "?")
	code, _, _ = strings.Cut(code, "#")
	return strings.ToLower(host), code
}

// Annotate labels every record (§3.3.6). Annotation is pure CPU over the
// whole dataset, so it fans out over GOMAXPROCS workers; each worker
// checks ctx between records, so a dead run stops burning CPU on records
// it will discard and the first context error is returned.
func (p *Pipeline) Annotate(ctx context.Context, ds *Dataset) error {
	sp := p.tel.StartSpan("annotate")
	defer sp.End()
	parallelFor(ctx, len(ds.Records), runtime.GOMAXPROCS(0), func(i int) {
		rec := &ds.Records[i]
		rec.Annotation = annotate.Annotate(rec.Text, rec.ShownURL)
		p.met.annotated.Inc()
	})
	return ctx.Err()
}

// Run executes curate -> enrich -> annotate over collected reports. The
// stages run to completion in turn, so record order (and therefore every
// rendered table) is bit-identical run to run.
func (p *Pipeline) Run(ctx context.Context, reports []forum.RawReport) (*Dataset, error) {
	ds := p.Curate(reports)
	if err := p.Enrich(ctx, ds); err != nil {
		return ds, err
	}
	if err := p.Annotate(ctx, ds); err != nil {
		return ds, err
	}
	return ds, nil
}
