package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/crawler"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/monitor"
	"github.com/smishkit/smishkit/internal/screenshot"
	"github.com/smishkit/smishkit/internal/senderid"
)

func runPipeline(t *testing.T, n int, seed int64) (*corpus.World, *Dataset) {
	t.Helper()
	w := corpus.Generate(corpus.Config{Seed: seed, Messages: n})
	sim, err := StartSimulation(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sim.Close() })

	reports, _, err := forum.CollectAll(context.Background(), sim.Collectors())
	if err != nil {
		t.Fatal(err)
	}
	pipe := mustPipeline(t, sim.Services(), Options{})
	ds, err := pipe.Run(context.Background(), reports)
	if err != nil {
		t.Fatal(err)
	}
	return w, ds
}

func TestPipelineEndToEnd(t *testing.T) {
	w, ds := runPipeline(t, 1200, 99)

	if len(ds.Records) == 0 {
		t.Fatal("no records curated")
	}
	// The curated count should approach the world's message count: decoys
	// rejected, everything else kept.
	if len(ds.Records) < len(w.Messages)*9/10 {
		t.Errorf("records = %d of %d messages", len(ds.Records), len(w.Messages))
	}
	if ds.DecoysRejected == 0 {
		t.Error("no decoys rejected — noise posts should include posters")
	}

	var withHLR, withURL, withFinal, withWhois, withCT, withVT, annotated int
	for _, r := range ds.Records {
		if r.HLRDone {
			withHLR++
			if r.SenderKind != senderid.KindPhone {
				t.Fatalf("HLR ran on non-phone sender %q", r.SenderRaw)
			}
		}
		if r.HasURL() {
			withURL++
		}
		if r.FinalURL != "" {
			withFinal++
		}
		if r.WhoisFound {
			withWhois++
		}
		if r.CT.Certs > 0 {
			withCT++
		}
		if r.VTMalicious > 0 {
			withVT++
		}
		if r.Annotation.ScamType != "" {
			annotated++
		}
	}
	if withHLR == 0 || withURL == 0 || withWhois == 0 || withCT == 0 || withVT == 0 {
		t.Errorf("enrichment coverage: hlr=%d url=%d whois=%d ct=%d vt=%d",
			withHLR, withURL, withWhois, withCT, withVT)
	}
	if withFinal >= withURL {
		// Some short links are taken down; their chains must be lost.
		takenDown := 0
		for _, l := range w.Links {
			if l.TakenDown {
				takenDown++
			}
		}
		if takenDown > 0 {
			t.Errorf("no chains lost despite %d taken-down links", takenDown)
		}
	}
	if annotated != len(ds.Records) {
		t.Errorf("annotated %d of %d", annotated, len(ds.Records))
	}
}

func TestPipelineHLRAgreesWithGroundTruth(t *testing.T) {
	w, ds := runPipeline(t, 800, 101)
	truth := w.Numbers
	checked := 0
	for _, r := range ds.Records {
		if !r.HLRDone || !r.HLR.Known {
			continue
		}
		s, ok := truth[r.HLR.MSISDN]
		if !ok {
			continue
		}
		checked++
		if r.HLR.OriginalMNO != s.MNO || r.HLR.NumberType != s.NumberType {
			t.Fatalf("HLR mismatch for %s: %+v vs %+v", r.HLR.MSISDN, r.HLR.Record, s)
		}
	}
	if checked == 0 {
		t.Fatal("no registry-backed HLR results")
	}
}

func TestPipelineShortenerExpansion(t *testing.T) {
	w, ds := runPipeline(t, 1500, 103)
	expanded := 0
	for _, r := range ds.Records {
		if r.Shortener == "" || r.FinalURL == "" || r.FinalURL == r.ShownURL {
			continue
		}
		expanded++
		// The expansion must match the world's link table.
		service, code := splitShort(r.ShownURL)
		link, ok := w.Links[service+"/"+code]
		if !ok {
			t.Fatalf("expanded unknown link %s/%s", service, code)
		}
		if link.Target != r.FinalURL {
			t.Fatalf("expansion mismatch: %q vs %q", r.FinalURL, link.Target)
		}
	}
	if expanded == 0 {
		t.Error("no short links expanded")
	}
}

func TestPipelineNaiveExtractorDegrades(t *testing.T) {
	w := corpus.Generate(corpus.Config{Seed: 105, Messages: 600})
	sim, err := StartSimulation(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	reports, _, err := forum.CollectAll(context.Background(), sim.Collectors())
	if err != nil {
		t.Fatal(err)
	}

	structured := mustPipeline(t, Services{}, Options{Extractor: screenshot.StructuredVision{}}).Curate(reports)
	naive := mustPipeline(t, Services{}, Options{Extractor: screenshot.NaiveOCR{}}).Curate(reports)

	if len(naive.Records) >= len(structured.Records) {
		t.Errorf("naive OCR curated %d >= structured %d; custom themes should be lost",
			len(naive.Records), len(structured.Records))
	}
	// Structured vision separates sender IDs; naive OCR cannot.
	structSenders, naiveSenders := 0, 0
	for _, r := range structured.Records {
		if r.FromImage && r.SenderRaw != "" {
			structSenders++
		}
	}
	for _, r := range naive.Records {
		if r.FromImage && r.SenderRaw != "" {
			naiveSenders++
		}
	}
	if naiveSenders >= structSenders {
		t.Errorf("sender recovery: naive %d >= structured %d", naiveSenders, structSenders)
	}
}

func TestPipelineContextCancellation(t *testing.T) {
	w := corpus.Generate(corpus.Config{Seed: 107, Messages: 400})
	sim, err := StartSimulation(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	reports, _, err := forum.CollectAll(context.Background(), sim.Collectors())
	if err != nil {
		t.Fatal(err)
	}
	pipe := mustPipeline(t, sim.Services(), Options{})
	ds := pipe.Curate(reports)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pipe.Enrich(ctx, ds); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled enrichment returned %v, want context.Canceled", err)
	}
}

func TestParseQuotedBody(t *testing.T) {
	text, sender := parseQuotedBody(`Got this: "Your parcel is held" from +447700900123`)
	if text != "Your parcel is held" || sender != "+447700900123" {
		t.Errorf("parsed = %q, %q", text, sender)
	}
	if text, _ := parseQuotedBody("no quotes here"); text != "" {
		t.Errorf("phantom quote: %q", text)
	}
}

func TestSplitShort(t *testing.T) {
	service, code := splitShort("https://bit.ly/aB9x?utm=1")
	if service != "bit.ly" || code != "aB9x" {
		t.Errorf("split = %q, %q", service, code)
	}
	if s, c := splitShort("https://bit.ly"); s != "" || c != "" {
		t.Errorf("no-path split = %q, %q", s, c)
	}
}

func TestTakedownScheduleLifespans(t *testing.T) {
	w := corpus.Generate(corpus.Config{Seed: 111, Messages: 800})
	sim, err := StartSimulation(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	start := time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	clock, advance := monitor.NewVirtualTime(start)
	sim.EnableTakedownSchedule(start, clock)

	c := crawler.NewCrawler()
	c.Rewrite = sim.CrawlRouter().Rewrite
	var urls []string
	for _, m := range w.Messages {
		if m.FinalURL != "" && m.Domain != "" {
			urls = append(urls, m.FinalURL)
			if len(urls) == 60 {
				break
			}
		}
	}
	m := &monitor.Monitor{Crawler: c, Interval: 2 * time.Hour, Clock: clock, Advance: advance}
	targets, err := m.Run(context.Background(), urls, 60) // 5 simulated days
	if err != nil {
		t.Fatal(err)
	}
	sum := monitor.Summarize(targets)
	if sum.Died == 0 {
		t.Fatal("no takedowns observed over 5 simulated days")
	}
	// Corpus schedules takedowns 6-102 hours out: the measured spread must
	// land inside that bracket (paper: minutes to a few days).
	if sum.Lifespans.Min < 0 || sum.Lifespans.Max > 104 {
		t.Errorf("lifespan hours = %+v", sum.Lifespans)
	}
	t.Logf("lifespans (h): min=%.1f med=%.1f max=%.1f died=%d/%d",
		sum.Lifespans.Min, sum.Lifespans.Median, sum.Lifespans.Max, sum.Died, sum.Targets)
}
