package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smishkit/smishkit/internal/annotate"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/extract"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/screenshot"
	"github.com/smishkit/smishkit/internal/senderid"
	"github.com/smishkit/smishkit/internal/shortener"
	"github.com/smishkit/smishkit/internal/telemetry"
	"github.com/smishkit/smishkit/internal/urlinfo"
)

// Options tunes the pipeline.
type Options struct {
	// Extractor reads screenshot attachments; defaults to StructuredVision
	// (the rung the paper settled on in §3.2).
	Extractor screenshot.Extractor
	// EnrichWorkers is the record-level enrichment fan-out width (default
	// 8; negative is a construction error).
	EnrichWorkers int
	// StepWorkers bounds intra-record enrichment parallelism. After
	// shortener expansion settles (the only true sequencing edge — it
	// produces FinalURL/Domain), the independent enrichment families (HLR,
	// WHOIS, CT, the pDNS→AS chain, and the three AV endpoints) run
	// concurrently under at most this many goroutines per record. 0 selects
	// the default (4); 1 reproduces the historical fully sequential order;
	// negative is a construction error.
	StepWorkers int
	// StageWorkers bounds the worker pools of the CPU stages (screenshot
	// extraction in Curate, annotation in Annotate). 0 selects GOMAXPROCS;
	// negative is a construction error.
	StageWorkers int
	// Streaming does nothing: Run always runs its stages in turn, so record
	// order is curation order.
	//
	// Deprecated: the overlapped mode this selected is gone; leave it unset.
	Streaming bool
	// Telemetry receives per-stage spans, per-record curation outcomes,
	// and enrichment latency. Nil gets a private registry so
	// Pipeline.Telemetry always works.
	Telemetry *telemetry.Registry

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
	// MinAbortCalls is the minimum call sample before the failure-rate
	// abort can trigger (default 50).
	MinAbortCalls int
}

func (o Options) withDefaults() Options {
	if o.Extractor == nil {
		o.Extractor = screenshot.StructuredVision{}
	}
	if o.EnrichWorkers == 0 {
		o.EnrichWorkers = 8
	}
	if o.StepWorkers == 0 {
		o.StepWorkers = 4
	}
	if o.StageWorkers == 0 {
		o.StageWorkers = runtime.GOMAXPROCS(0)
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.NewRegistry()
	}
	if o.AbortFailureRate == 0 {
		o.AbortFailureRate = 0.9
	}
	if o.MinAbortCalls == 0 {
		o.MinAbortCalls = 50
	}
	return o
}

// Pipeline runs collection output through curation, enrichment, and
// annotation.
type Pipeline struct {
	services Services
	opts     Options
	tel      *telemetry.Registry
	met      pipelineMetrics
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
// The slice order is the historical sequential call order, which scatter
// preserves exactly when StepWorkers is 1.
var familyNames = []string{"hlr", "whois", "ct", "pdns", "vt", "gsb", "gsb_status"}

// NewPipeline builds a pipeline over the given services. It fails on
// invalid options (currently negative worker counts) so facades can tear
// down already-booted resources instead of deferring the blowup to Run.
func NewPipeline(services Services, opts Options) (*Pipeline, error) {
	if opts.EnrichWorkers < 0 {
		return nil, errors.New("core: EnrichWorkers must not be negative")
	}
	if opts.StepWorkers < 0 {
		return nil, errors.New("core: StepWorkers must not be negative")
	}
	if opts.StageWorkers < 0 {
		return nil, errors.New("core: StageWorkers must not be negative")
	}
	opts = opts.withDefaults()
	tel := opts.Telemetry
	famLat := make(map[string]*telemetry.Histogram, len(familyNames))
	for _, name := range familyNames {
		famLat[name] = tel.Histogram("pipeline.enrich.family." + name)
	}
	return &Pipeline{
		services: services,
		opts:     opts,
		tel:      tel,
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

// Curate turns raw forum reports into records: it reads screenshot
// attachments with the configured extractor, rejects non-SMS decoys, pulls
// quoted SMS texts out of post bodies, and normalizes the four variables
// (§3.2). Reports whose attachment is unreadable for the extractor count
// as EmptyDropped — the pytesseract failure mode.
//
// Extraction (screenshot decode + OCR) dominates curation and is pure per
// report, so it fans out over Options.StageWorkers into an index-addressed
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
	parallelFor(context.Background(), len(reports), p.opts.StageWorkers, func(i int) {
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
	if rec.ShownURL != "" {
		if info, err := urlinfo.Parse(rec.ShownURL); err == nil {
			rec.URLInfo = info
			rec.Shortener = info.Shortener
		}
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
	if calls < int64(p.opts.MinAbortCalls) {
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
// on landing URLs. A failing service degrades that record's fields
// (recorded in Record.EnrichmentErrors), not the run; the run aborts only
// when ctx dies or the overall call failure rate crosses
// Options.AbortFailureRate.
func (p *Pipeline) Enrich(ctx context.Context, ds *Dataset) error {
	sp := p.tel.StartSpan("enrich")
	defer sp.End()
	jobs := make(chan int)
	var wg sync.WaitGroup
	errOnce := sync.Once{}
	var firstErr error
	abort := make(chan struct{})
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(abort)
		})
	}

	st := &enrichState{}
	for w := 0; w < p.opts.EnrichWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				p.met.busyWorkers.Add(1)
				start := time.Now()
				err := p.enrichOne(ctx, st, &ds.Records[idx])
				p.met.recordLat.Observe(time.Since(start))
				p.met.busyWorkers.Add(-1)
				if err == nil {
					err = p.abortErr(st)
				}
				if err != nil {
					fail(err)
					return
				}
				if ds.Records[idx].Degraded() {
					p.met.degradedRecs.Inc()
				}
				p.met.enriched.Inc()
			}
		}()
	}
loop:
	for i := range ds.Records {
		select {
		case jobs <- i:
		case <-abort:
			break loop
		case <-ctx.Done():
			fail(ctx.Err())
			break loop
		}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// enrichStep runs one service call under the per-call timeout. A failure
// degrades the record's field — appended to Record.EnrichmentErrors under
// the record's mutex and counted in telemetry — instead of propagating;
// the return value reports whether the field resolved. mu serializes the
// only record state shared between concurrently scattered families; every
// other field a step writes belongs to exactly one family.
func (p *Pipeline) enrichStep(ctx context.Context, st *enrichState, rec *Record, mu *sync.Mutex, field, service string, fn func(context.Context) error) bool {
	callCtx, cancel := ctx, context.CancelFunc(nil)
	if p.opts.CallTimeout > 0 {
		callCtx, cancel = context.WithTimeout(ctx, p.opts.CallTimeout)
	}
	err := fn(callCtx)
	if cancel != nil {
		cancel()
	}
	if err == nil {
		st.calls.Add(1)
		return true
	}
	// A short-circuited call never reached the service: the field is still
	// lost, but the failure it echoes was counted when the guard tripped,
	// so it stays out of the abort ratio — an open breaker shedding load
	// must not read as "everything is failing".
	if !errors.Is(err, ErrShortCircuited) {
		st.calls.Add(1)
		st.fails.Add(1)
	}
	p.met.degradedFields.Inc()
	mu.Lock()
	rec.EnrichmentErrors = append(rec.EnrichmentErrors, EnrichmentError{
		Field: field, Service: service, Err: err.Error(),
	})
	mu.Unlock()
	return false
}

// enrichFamily is one independent arm of the per-record enrichment DAG.
// Everything run touches depends only on state settled before the scatter
// (the committed FinalURL/Domain and immutable curation fields), so
// families are safe to execute concurrently: each writes a disjoint set of
// record fields and routes the shared EnrichmentErrors slice through
// enrichStep's lock.
type enrichFamily struct {
	name string
	run  func(context.Context)
}

// scatter executes the record's enrichment families under at most
// Options.StepWorkers goroutines. Width 1 (or a single family) runs them
// inline in slice order — the historical sequential behavior, kept exact
// so barrier-mode output with StepWorkers=1 is bit-identical to the
// pre-DAG pipeline. parent is checked between launches so a dead run stops
// scheduling new service calls; families already launched finish (failing
// fast against their dead contexts and degrading their fields).
func (p *Pipeline) scatter(ctx, parent context.Context, fams []enrichFamily) {
	width := p.opts.StepWorkers
	if width > len(fams) {
		width = len(fams)
	}
	if width <= 1 {
		for i := range fams {
			if parent.Err() != nil {
				return
			}
			p.runFamily(ctx, &fams[i])
		}
		return
	}
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	for i := range fams {
		if parent.Err() != nil {
			break
		}
		f := &fams[i]
		sem <- struct{}{} // bounds in-flight families, keeps launch order
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			p.runFamily(ctx, f)
		}()
	}
	wg.Wait()
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
	var mu sync.Mutex // guards rec.EnrichmentErrors across scattered families

	// 1. Shortener expansion: resolve into a local, commit once. A failed
	// expansion must not leave FinalURL/Domain half-rewritten, so the
	// record's URL fields only change after the expansion settles.
	finalURL := rec.ShownURL
	if rec.Shortener != "" && p.services.Shortener != nil {
		if service, code := splitShort(rec.ShownURL); service != "" && code != "" {
			ok := p.enrichStep(ctx, st, rec, &mu, "final_url", "shortener", func(c context.Context) error {
				target, err := p.services.Shortener.Expand(c, service, code)
				switch {
				case err == nil:
					finalURL = target
				case errors.Is(err, shortener.ErrNotFound), errors.Is(err, shortener.ErrTakenDown):
					finalURL = "" // chain lost (§3.3.5)
				default:
					return err
				}
				return nil
			})
			if !ok {
				// Unknown landing URL: degrade rather than mislabel the
				// shortener host as the landing domain.
				finalURL = ""
			}
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
	if rec.SenderKind == senderid.KindPhone && p.services.HLR != nil {
		fams = append(fams, enrichFamily{"hlr", func(c context.Context) {
			p.enrichStep(c, st, rec, &mu, "hlr", "hlr", func(c context.Context) error {
				res, err := p.services.HLR.Lookup(c, rec.SenderRaw)
				if err != nil {
					return err
				}
				rec.HLR = res
				rec.HLRDone = true
				return nil
			})
		}})
	}
	if rec.Domain != "" && !isSharedPlatform(rec) {
		if p.services.Whois != nil {
			fams = append(fams, enrichFamily{"whois", func(c context.Context) {
				p.enrichStep(c, st, rec, &mu, "whois", "whois", func(c context.Context) error {
					w, found, err := p.services.Whois.Lookup(c, rec.Domain)
					if err != nil {
						return err
					}
					rec.Whois, rec.WhoisFound = w, found
					return nil
				})
			}})
		}
		if p.services.CTLog != nil {
			fams = append(fams, enrichFamily{"ct", func(c context.Context) {
				p.enrichStep(c, st, rec, &mu, "ct", "ctlog", func(c context.Context) error {
					sum, err := p.services.CTLog.Summary(c, rec.Domain)
					if err != nil {
						return err
					}
					rec.CT = sum
					return nil
				})
			}})
		}
		if p.services.DNSDB != nil {
			// The pDNS→AS chain is internally sequential (the AS lookups
			// need the resolutions) but independent of every other family.
			fams = append(fams, enrichFamily{"pdns", func(c context.Context) {
				ok := p.enrichStep(c, st, rec, &mu, "pdns", "dnsdb", func(c context.Context) error {
					obs, err := p.services.DNSDB.Resolutions(c, rec.Domain)
					if err != nil {
						return err
					}
					rec.PDNS = obs
					return nil
				})
				if !ok {
					return
				}
				// Cross-record IP dedup lives in the enrichcache layer (the
				// same IP resolved for every record sharing a domain used to
				// re-query here); within one record a linear pair scan keeps
				// the AS list unique without a per-record map allocation.
				for _, o := range rec.PDNS {
					if !p.enrichStep(c, st, rec, &mu, "as_names", "dnsdb", func(c context.Context) error {
						info, err := p.services.DNSDB.ASOf(c, o.IP)
						if errors.Is(err, dnsdb.ErrNoRoute) {
							return nil // unrouted IP: an answer, not a failure
						}
						if err != nil {
							return err
						}
						if !hasASPair(rec.ASNames, rec.ASCountries, info.Name, info.Country) {
							rec.ASNames = append(rec.ASNames, info.Name)
							rec.ASCountries = append(rec.ASCountries, info.Country)
						}
						return nil
					}) {
						return // one degraded AS list; don't hammer a failing service per IP
					}
				}
			}})
		}
	}
	// AV verdicts on the landing URL — three independent endpoints; each
	// degrades alone.
	if rec.FinalURL != "" && p.services.AVScan != nil {
		fams = append(fams, enrichFamily{"vt", func(c context.Context) {
			p.enrichStep(c, st, rec, &mu, "vt", "avscan", func(c context.Context) error {
				scan, err := p.services.AVScan.Scan(c, rec.FinalURL)
				if err != nil {
					return err
				}
				rec.VTMalicious = scan.Stats.Malicious
				rec.VTSuspicious = scan.Stats.Suspicious
				return nil
			})
		}})
		fams = append(fams, enrichFamily{"gsb", func(c context.Context) {
			p.enrichStep(c, st, rec, &mu, "gsb", "avscan", func(c context.Context) error {
				gsb, err := p.services.AVScan.GSBLookup(c, rec.FinalURL)
				if err != nil {
					return err
				}
				rec.GSBMatched = gsb.Matched
				return nil
			})
		}})
		fams = append(fams, enrichFamily{"gsb_status", func(c context.Context) {
			p.enrichStep(c, st, rec, &mu, "gsb_status", "avscan", func(c context.Context) error {
				tr, blocked, err := p.services.AVScan.Transparency(c, rec.FinalURL)
				if err != nil {
					return err
				}
				rec.GSBBlocked = blocked
				if !blocked {
					rec.GSBStatus = string(tr.Status)
				}
				return nil
			})
		}})
	}
	p.scatter(ctx, parent, fams)
	return parent.Err()
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
	if rec.URLInfo.Messaging != "" {
		return true
	}
	_, isShort := urlinfo.Shorteners[rec.Domain]
	return isShort
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
// whole dataset, so it fans out over Options.StageWorkers; each worker
// checks ctx between records, so a dead run stops burning CPU on records
// it will discard and the first context error is returned.
func (p *Pipeline) Annotate(ctx context.Context, ds *Dataset) error {
	sp := p.tel.StartSpan("annotate")
	defer sp.End()
	parallelFor(ctx, len(ds.Records), p.opts.StageWorkers, func(i int) {
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
