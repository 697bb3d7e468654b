// Benchmarks regenerate every table and figure of the paper against the
// simulated world and measure the pipeline's moving parts. Run with:
//
//	go test -bench=. -benchmem
//
// Each exhibit benchmark logs the rows/series it reproduces (visible under
// -v or in benchmark output files) so paper-vs-measured comparisons can be
// recorded in EXPERIMENTS.md.
package smishkit

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/annotate"
	"github.com/smishkit/smishkit/internal/cluster"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/crawler"
	"github.com/smishkit/smishkit/internal/detect"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/enrichcache"
	"github.com/smishkit/smishkit/internal/faultinject"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/malware"
	"github.com/smishkit/smishkit/internal/monitor"
	"github.com/smishkit/smishkit/internal/report"
	"github.com/smishkit/smishkit/internal/resilience"
	"github.com/smishkit/smishkit/internal/screenshot"
	"github.com/smishkit/smishkit/internal/shortener"
	"github.com/smishkit/smishkit/internal/stats"
	"github.com/smishkit/smishkit/internal/telemetry"
	"github.com/smishkit/smishkit/internal/textnorm"
	"github.com/smishkit/smishkit/internal/urlinfo"
	"github.com/smishkit/smishkit/internal/xdrfilter"
)

// benchScale is the corpus size the exhibit benchmarks run over.
const benchScale = 6000

var (
	benchOnce    sync.Once
	benchSim     *core.Simulation
	benchWorld   *corpus.World
	benchReports []forum.RawReport
	benchDS      *core.Dataset
	benchErr     error
)

// benchDataset builds the shared simulated dataset once.
func benchDataset(b *testing.B) *core.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchWorld = corpus.Generate(corpus.Config{Seed: 1861, Messages: benchScale})
		benchSim, benchErr = core.StartSimulation(benchWorld)
		if benchErr != nil {
			return
		}
		benchReports, _, benchErr = forum.CollectAll(context.Background(), benchSim.Collectors())
		if benchErr != nil {
			return
		}
		var pipe *core.Pipeline
		pipe, benchErr = core.NewPipeline(benchSim.Services(), core.Options{EnrichWorkers: 16})
		if benchErr != nil {
			return
		}
		benchDS, benchErr = pipe.Run(context.Background(), benchReports)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

// --- Exhibit benchmarks: one per table/figure ---

func BenchmarkTable01DatasetOverview(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []report.Table1Row
	for i := 0; i < b.N; i++ {
		rows = report.Table1(ds)
	}
	b.StopTimer()
	for _, r := range rows {
		b.Logf("%-12s posts=%d images=%d texts=%d/%d", r.Forum, r.Posts, r.Images, r.UniqueTexts, r.TotalTexts)
	}
}

func BenchmarkTable03PhoneNumberTypes(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var c *stats.Counter
	for i := 0; i < b.N; i++ {
		c = report.Table3(ds.Records)
	}
	b.StopTimer()
	for _, e := range c.TopK(5) {
		b.Logf("%s", e)
	}
}

func BenchmarkTable04TopMNOs(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []report.MNORow
	for i := 0; i < b.N; i++ {
		rows = report.Table4(ds.Records, 10)
	}
	b.StopTimer()
	for _, r := range rows[:min(5, len(rows))] {
		b.Logf("%-20s %d numbers, %d countries", r.MNO, r.Numbers, len(r.Countries))
	}
}

func BenchmarkTable05Shorteners(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var ct *stats.CrossTab
	for i := 0; i < b.N; i++ {
		ct = report.Table5(ds.Records)
	}
	b.StopTimer()
	for _, e := range ct.RowTotals().TopK(5) {
		b.Logf("%-14s total=%d banking=%d delivery=%d", e.Key, e.Count,
			ct.Cell(e.Key, "banking"), ct.Cell(e.Key, "delivery"))
	}
}

func BenchmarkTable06TLDs(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var landing, short *stats.Counter
	for i := 0; i < b.N; i++ {
		landing, short = report.Table6(ds.Records)
	}
	b.StopTimer()
	b.Logf("landing top: %v", landing.TopK(5))
	b.Logf("shortened top: %v", short.TopK(5))
}

func BenchmarkTable07TLSCAs(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []report.CARow
	for i := 0; i < b.N; i++ {
		rows = report.Table7(ds.Records, 10)
	}
	b.StopTimer()
	for _, r := range rows[:min(4, len(rows))] {
		b.Logf("%-24s %d certs / %d domains", r.CA, r.Certificates, r.Domains)
	}
}

func BenchmarkTable08ASes(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []report.ASRow
	for i := 0; i < b.N; i++ {
		rows = report.Table8(ds.Records, 10)
	}
	b.StopTimer()
	for _, r := range rows[:min(4, len(rows))] {
		b.Logf("%-24s %d IPs %v", r.ASName, r.IPs, r.Countries)
	}
}

func BenchmarkTable09VirusTotal(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var res report.Table9Result
	for i := 0; i < b.N; i++ {
		res = report.Table9(ds.Records)
	}
	b.StopTimer()
	b.Logf("urls=%d undetected=%d >=1:%d >=5:%d >=15:%d susp>=1:%d",
		res.URLs, res.Undetected, res.MaliciousGE[1], res.MaliciousGE[5],
		res.MaliciousGE[15], res.SuspiciousGE[1])
}

func BenchmarkTable10ScamCategories(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var c *stats.Counter
	for i := 0; i < b.N; i++ {
		c, _ = report.Table10(ds.Records)
	}
	b.StopTimer()
	for _, e := range c.TopK(4) {
		b.Logf("%s", e)
	}
}

func BenchmarkTable11Languages(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var c *stats.Counter
	for i := 0; i < b.N; i++ {
		c = report.Table11(ds.Records)
	}
	b.StopTimer()
	for _, e := range c.TopK(5) {
		b.Logf("%s", e)
	}
}

func BenchmarkTable12Brands(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var c *stats.Counter
	for i := 0; i < b.N; i++ {
		c = report.Table12(ds.Records)
	}
	b.StopTimer()
	for _, e := range c.TopK(5) {
		b.Logf("%s", e)
	}
}

func BenchmarkTable13Lures(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var ct *stats.CrossTab
	for i := 0; i < b.N; i++ {
		ct = report.Table13(ds.Records)
	}
	b.StopTimer()
	for _, e := range ct.RowTotals().TopK(4) {
		b.Logf("%-14s total=%d banking=%d heymum=%d", e.Key, e.Count,
			ct.Cell(e.Key, "banking"), ct.Cell(e.Key, "hey_mum_dad"))
	}
}

func BenchmarkTable14Countries(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []report.CountryRow
	for i := 0; i < b.N; i++ {
		rows = report.Table14(ds.Records, 10)
	}
	b.StopTimer()
	for _, r := range rows[:min(5, len(rows))] {
		b.Logf("%-4s %d numbers (%d live, %d MNOs)", r.Country, r.Numbers, r.Live, r.MNOs)
	}
}

func BenchmarkTable15AnnualTweets(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var posts map[int]int
	for i := 0; i < b.N; i++ {
		posts, _ = report.Table15(ds.Records, corpus.ForumTwitter)
	}
	b.StopTimer()
	for y := 2017; y <= 2023; y++ {
		if n, ok := posts[y]; ok {
			b.Logf("%d: %d posts", y, n)
		}
	}
}

func BenchmarkTable16IANAClasses(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var urls *stats.Counter
	for i := 0; i < b.N; i++ {
		urls, _ = report.Table16(ds.Records)
	}
	b.StopTimer()
	for _, e := range urls.TopK(0) {
		b.Logf("%s", e)
	}
}

func BenchmarkTable17Registrars(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var c *stats.Counter
	for i := 0; i < b.N; i++ {
		c = report.Table17(ds.Records)
	}
	b.StopTimer()
	for _, e := range c.TopK(5) {
		b.Logf("%s", e)
	}
}

func BenchmarkTable18GSB(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var res report.Table18Result
	for i := 0; i < b.N; i++ {
		res = report.Table18(ds.Records)
	}
	b.StopTimer()
	b.Logf("urls=%d api=%d tr-unsafe=%d tr-partial=%d tr-nodata=%d blocked=%d",
		res.URLs, res.APIUnsafe, res.TRUnsafe, res.TRPartial, res.TRNoData, res.TRBlocked)
}

// BenchmarkTable19CaseStudyAPKs runs the §6 active-analysis loop: crawl a
// 200-URL sample with both personas, capture APKs, unify labels.
func BenchmarkTable19CaseStudyAPKs(b *testing.B) {
	ds := benchDataset(b)
	var sample []core.Record
	rng := rand.New(rand.NewSource(5))
	for _, r := range ds.Records {
		if r.HasURL() {
			sample = append(sample, r)
		}
	}
	rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	if len(sample) > 200 {
		sample = sample[:200]
	}
	c := crawler.NewCrawler()
	c.Rewrite = benchSim.CrawlRouter().Rewrite
	ctx := context.Background()

	b.ResetTimer()
	var families *stats.Counter
	for i := 0; i < b.N; i++ {
		families = stats.NewCounter()
		for _, rec := range sample {
			_, android := c.CrawlBoth(ctx, rec.ShownURL)
			if android.Outcome != crawler.OutcomeAPKDownload {
				continue
			}
			truth := benchWorld.Domains[domainKey(android.FinalURL)]
			labels := malware.ScanLabels(malware.Sample{SHA256: android.APKSHA256, Family: truth.MalwareFamily}, 10)
			if fam := malware.Unify(labels); fam != "" {
				families.Add(fam)
			}
		}
	}
	b.StopTimer()
	for _, e := range families.TopK(0) {
		b.Logf("%s", e)
	}
}

func BenchmarkFig02Timestamps(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var res report.Fig2Result
	for i := 0; i < b.N; i++ {
		res = report.Fig2(ds.Records, true)
	}
	b.StopTimer()
	b.Logf("n=%d significant-pairs=%d", res.N, len(res.SignificantPairs))
	if s, ok := res.ByWeekday[time.Monday]; ok {
		b.Logf("Monday median send hour: %.2f", s.Median)
	}
}

func BenchmarkFig03CountryScamMix(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var mix map[string]map[string]float64
	for i := 0; i < b.N; i++ {
		mix = report.Fig3(ds.Records, 10)
	}
	b.StopTimer()
	if ind, ok := mix["IND"]; ok {
		b.Logf("IND banking share: %.2f", ind["banking"])
	}
	if usa, ok := mix["USA"]; ok {
		b.Logf("USA others share: %.2f", usa["others"])
	}
}

func BenchmarkSenderIDKinds(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var c *stats.Counter
	for i := 0; i < b.N; i++ {
		c = report.SenderKinds(ds.Records)
	}
	b.StopTimer()
	for _, e := range c.TopK(0) {
		b.Logf("%s", e)
	}
}

// --- Methodology benchmarks ---

// BenchmarkExtractorLadder compares the three extraction rungs on the same
// screenshot corpus: throughput here, field yield in the logs (§3.2).
func BenchmarkExtractorLadder(b *testing.B) {
	benchDataset(b)
	var images []screenshot.Image
	for _, rep := range benchReports {
		if rep.HasAttachment() {
			if img, err := screenshot.Decode(rep.Attachment); err == nil {
				images = append(images, img)
				if len(images) == 500 {
					break
				}
			}
		}
	}
	engines := []screenshot.Extractor{
		screenshot.NaiveOCR{}, screenshot.VisionOCR{}, screenshot.StructuredVision{},
	}
	for _, eng := range engines {
		b.Run(eng.Name(), func(b *testing.B) {
			var okCount, urlCount, urlTotal int
			for i := 0; i < b.N; i++ {
				okCount, urlCount, urlTotal = 0, 0, 0
				for _, img := range images {
					ext, err := eng.Extract(img)
					if err != nil || !ext.OK {
						continue
					}
					okCount++
					if img.TruthURL == "" {
						continue
					}
					urlTotal++
					// A URL counts as recovered if the engine isolated it
					// exactly, or if it survives contiguously in the text.
					joined := ""
					for _, r := range ext.Text {
						if r != '\n' {
							joined += string(r)
						}
					}
					if ext.URL == img.TruthURL || contains(joined, img.TruthURL) {
						urlCount++
					}
				}
			}
			b.StopTimer()
			b.Logf("%s: %d/%d readable, %d/%d URLs recovered", eng.Name(), okCount, len(images), urlCount, urlTotal)
		})
	}
}

// BenchmarkKappaEvaluation runs the §3.4 protocol: annotate a golden set
// and compute the four agreement kappas.
func BenchmarkKappaEvaluation(b *testing.B) {
	w := corpus.Generate(corpus.Config{Seed: 314, Messages: 150})
	golden := make([]annotate.Annotation, len(w.Messages))
	texts := make([]string, len(w.Messages))
	urls := make([]string, len(w.Messages))
	for i, m := range w.Messages {
		golden[i] = annotate.Annotation{ScamType: m.ScamType, Language: m.Language, Brand: m.Brand, Lures: m.Lures}
		texts[i], urls[i] = m.Text, m.URL
	}
	b.ResetTimer()
	var agr annotate.Agreement
	for i := 0; i < b.N; i++ {
		predicted := make([]annotate.Annotation, len(texts))
		for j := range texts {
			predicted[j] = annotate.Annotate(texts[j], urls[j])
		}
		var err error
		agr, err = annotate.Evaluate(golden, predicted)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("scam κ=%.2f brand κ=%.2f lure κ=%.2f lang κ=%.2f (paper: 0.93 / 0.85 / 0.70)",
		agr.ScamKappa, agr.BrandKappa, agr.LureKappa, agr.LangKappa)
}

// --- Ablation benchmarks (DESIGN.md §6) ---

// BenchmarkEnrichmentFanout sweeps the enrichment worker count.
func BenchmarkEnrichmentFanout(b *testing.B) {
	benchDataset(b)
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			pipe, err := core.NewPipeline(benchSim.Services(), core.Options{EnrichWorkers: workers})
			if err != nil {
				b.Fatal(err)
			}
			// A fixed 400-report slice keeps iterations comparable.
			slice := benchReports
			if len(slice) > 400 {
				slice = slice[:400]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds := pipe.Curate(slice)
				if err := pipe.Enrich(context.Background(), ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnrichmentCache is the before/after for the caching tier: the
// same curated reports enriched through bare service clients vs through
// the singleflight/TTL/LRU decorators. Reports collapse onto far fewer
// distinct domains and numbers, so the cached runs answer most lookups
// locally; the reported hit% is the realized reuse.
func BenchmarkEnrichmentCache(b *testing.B) {
	benchDataset(b)
	slice := benchReports
	if len(slice) > 800 {
		slice = slice[:800]
	}

	enrich := func(b *testing.B, services core.Services) {
		pipe, err := core.NewPipeline(services, core.Options{EnrichWorkers: 16})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ds := pipe.Curate(slice)
			b.StartTimer()
			if err := pipe.Enrich(context.Background(), ds); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("uncached", func(b *testing.B) {
		enrich(b, benchSim.Services())
	})
	b.Run("cached", func(b *testing.B) {
		cache := enrichcache.New(enrichcache.Config{TTL: time.Hour}, telemetry.NewRegistry())
		enrich(b, cache.WrapServices(benchSim.Services()))
		var hits, misses int64
		for _, st := range cache.Stats() {
			hits += st.Hits + st.Coalesced
			misses += st.Misses
		}
		if total := hits + misses; total > 0 {
			b.ReportMetric(float64(hits)/float64(total)*100, "hit%")
		}
	})
}

// BenchmarkEnrichDegraded measures the cost of degraded-mode enrichment:
// whois erroring on half its calls behind a circuit breaker, against the
// healthy baseline. The degraded run pays for failed calls and breaker
// bookkeeping but sheds load once the breaker opens; the logged counters
// show how much of the sweep ran short-circuited.
func BenchmarkEnrichDegraded(b *testing.B) {
	benchDataset(b)
	slice := benchReports
	if len(slice) > 800 {
		slice = slice[:800]
	}

	enrich := func(b *testing.B, ops core.Ops) (degraded int64) {
		pipe, err := core.NewPipelineOver(ops, core.Options{EnrichWorkers: 16})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ds := pipe.Curate(slice)
			b.StartTimer()
			if err := pipe.Enrich(context.Background(), ds); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			degraded = 0
			for _, r := range ds.Records {
				degraded += int64(len(r.EnrichmentErrors))
			}
			b.StartTimer()
		}
		return degraded
	}

	b.Run("healthy", func(b *testing.B) {
		if degraded := enrich(b, core.OpsOf(benchSim.Services())); degraded != 0 {
			b.Fatalf("healthy run degraded %d fields", degraded)
		}
	})
	b.Run("whois-50pct-errors", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		faults := faultinject.New(faultinject.Config{
			Seed:       1861,
			PerService: map[string]faultinject.ServiceFaults{"whois": {ErrorRate: 0.5}},
		}, reg)
		breakers := resilience.New(resilience.Config{}, reg)
		degraded := enrich(b, breakers.Wrap(faults.Wrap(core.OpsOf(benchSim.Services()))))
		if degraded == 0 {
			b.Fatal("50% whois errors degraded nothing")
		}
		st := breakers.Stats()["whois"]
		b.ReportMetric(float64(degraded), "degraded-fields")
		b.Logf("whois breaker: opens=%d short-circuits=%d failures=%d successes=%d",
			st.Opens, st.ShortCircuits, st.Failures, st.Successes)
	})
}

// BenchmarkBrandNERNormalization measures the homoglyph/leet folding's
// effect on brand recovery over obfuscated mentions.
func BenchmarkBrandNERNormalization(b *testing.B) {
	obfuscated := []string{
		"N3tfl!x: your subscription failed",
		"РayРal: account limited",           // Cyrillic
		"Ａｍａｚｏｎ: unusual sign-in",           // fullwidth
		"P-a-y-P-a-l verification needed",   // spacing
		"Your $antander card is locked",     // leet
		"HSBC alert: confirm your identity", // clean control
	}
	b.Run("with-normalization", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			hits = 0
			for _, s := range obfuscated {
				if annotate.DetectBrand(s, "") != "" {
					hits++
				}
			}
		}
		b.StopTimer()
		b.Logf("recovered %d/%d obfuscated brands", hits, len(obfuscated))
	})
	b.Run("fold-only-baseline", func(b *testing.B) {
		// Baseline: plain lowercase contains-match, no skeletonization.
		brands := []string{"netflix", "paypal", "amazon", "santander", "hsbc"}
		hits := 0
		for i := 0; i < b.N; i++ {
			hits = 0
			for _, s := range obfuscated {
				low := textnorm.Fold(s)
				for _, br := range brands {
					if contains(low, br) {
						hits++
						break
					}
				}
			}
		}
		b.StopTimer()
		b.Logf("recovered %d/%d obfuscated brands", hits, len(obfuscated))
	})
}

// BenchmarkDedupStrategies compares exact-text dedup with normalized
// template dedup on corpus texts.
func BenchmarkDedupStrategies(b *testing.B) {
	ds := benchDataset(b)
	texts := make([]string, len(ds.Records))
	for i, r := range ds.Records {
		texts[i] = r.Text
	}
	b.Run("exact", func(b *testing.B) {
		var unique int
		for i := 0; i < b.N; i++ {
			seen := make(map[string]bool, len(texts))
			for _, t := range texts {
				seen[t] = true
			}
			unique = len(seen)
		}
		b.StopTimer()
		b.Logf("%d unique of %d", unique, len(texts))
	})
	b.Run("normalized-template", func(b *testing.B) {
		var unique int
		for i := 0; i < b.N; i++ {
			seen := make(map[string]bool, len(texts))
			for _, t := range texts {
				seen[templateKey(t)] = true
			}
			unique = len(seen)
		}
		b.StopTimer()
		b.Logf("%d unique of %d (campaign templates)", unique, len(texts))
	})
}

// BenchmarkASNLookup compares the radix tree against the linear scan.
func BenchmarkASNLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	radix := dnsdb.NewRadixTable()
	linear := &dnsdb.LinearTable{}
	for i := 0; i < 5000; i++ {
		addr := netip.AddrFrom4([4]byte{byte(1 + rng.Intn(220)), byte(rng.Intn(250)), 0, 0})
		p, err := addr.Prefix(12 + rng.Intn(13))
		if err != nil {
			b.Fatal(err)
		}
		info := dnsdb.ASInfo{ASN: i}
		if err := radix.Insert(p, info); err != nil {
			b.Fatal(err)
		}
		if err := linear.Insert(p, info); err != nil {
			b.Fatal(err)
		}
	}
	queries := make([]netip.Addr, 1000)
	for i := range queries {
		queries[i] = netip.AddrFrom4([4]byte{byte(1 + rng.Intn(220)), byte(rng.Intn(250)), byte(rng.Intn(250)), byte(rng.Intn(250))})
	}
	b.Run("radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				_, _ = radix.Lookup(q)
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				_, _ = linear.Lookup(q)
			}
		}
	})
}

// BenchmarkFullPipeline measures the complete collect->report path at a
// smaller scale (fresh world each run would defeat caching; collection
// reuses the booted simulation).
func BenchmarkFullPipeline(b *testing.B) {
	benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe, err := core.NewPipeline(benchSim.Services(), core.Options{EnrichWorkers: 16})
		if err != nil {
			b.Fatal(err)
		}
		slice := benchReports
		if len(slice) > 600 {
			slice = slice[:600]
		}
		if _, err := pipe.Run(context.Background(), slice); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers ---

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// templateKey collapses digits and URLs so messages from one campaign
// template share a key.
func templateKey(s string) string {
	out := make([]rune, 0, len(s))
	inURL := false
	for _, r := range textnorm.Fold(s) {
		switch {
		case r == ' ':
			inURL = false
			out = append(out, r)
		case inURL:
		case r >= '0' && r <= '9':
			out = append(out, '#')
		case r == '/':
			inURL = true
			out = append(out, '~')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// domainKey extracts the registrable domain from a landing URL.
func domainKey(u string) string {
	info, err := urlinfo.Parse(u)
	if err != nil {
		return ""
	}
	return info.Domain
}

// --- §7.2 mitigation benchmarks ---

// BenchmarkDetector measures the multi-class detector (train + inference).
func BenchmarkDetector(b *testing.B) {
	w := corpus.Generate(corpus.Config{Seed: 71, Messages: 3000})
	docs := make([]detect.Doc, 0, 3800)
	for _, m := range w.Messages {
		docs = append(docs, detect.Doc{Text: m.Text, Label: string(m.ScamType)})
	}
	for _, ham := range corpus.GenerateHam(72, 800) {
		docs = append(docs, detect.Doc{Text: ham, Label: "ham"})
	}
	train, test := detect.Split(docs, 0.25, 3)

	b.Run("train", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := detect.Train(train, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	model, err := detect.Train(train, true)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("infer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range test[:200] {
				if _, _, err := model.Predict(d.Text); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	ev, err := detect.Evaluate(model, test)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("multiclass accuracy=%.3f macroF1=%.3f over %d held-out docs", ev.Accuracy, ev.MacroF1, ev.N)
}

// BenchmarkXDRFilter compares the operator filter with and without the
// paper's recommended shortener-expansion check: the block rate on
// shortened smishing is the "who wins" number.
func BenchmarkXDRFilter(b *testing.B) {
	benchDataset(b)
	// Blocklist: every world domain flagged by threat intel (detectability
	// above the median) — the feed an operator could realistically buy.
	var blocklist []string
	for name, d := range benchWorld.Domains {
		if d.Detectability > 0.4 {
			blocklist = append(blocklist, name)
		}
	}
	var shortened []struct{ Sender, Text string }
	for _, m := range benchWorld.Messages {
		if m.Shortener != "" {
			shortened = append(shortened, struct{ Sender, Text string }{m.Sender.Value, m.Text})
			if len(shortened) == 400 {
				break
			}
		}
	}
	expander := shortener.NewClient(benchSim.Endpoints.Shortener.URL)

	for _, mode := range []struct {
		name string
		exp  xdrfilter.Expander
	}{{"without-expansion", nil}, {"with-expansion", expander}} {
		b.Run(mode.name, func(b *testing.B) {
			f := xdrfilter.New(xdrfilter.Config{Blocklist: blocklist, Expander: mode.exp})
			var st xdrfilter.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				st, err = f.Run(context.Background(), shortened)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.Logf("%s: blocked %d + flagged %d of %d shortened smishes",
				mode.name, st.Blocked, st.Flagged, st.Total)
		})
	}
}

// BenchmarkCampaignClustering measures the union-find attribution layer
// and logs the consolidation it achieves.
func BenchmarkCampaignClustering(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var campaigns []*cluster.Campaign
	for i := 0; i < b.N; i++ {
		campaigns = cluster.Cluster(ds.Records, cluster.DefaultOptions())
	}
	b.StopTimer()
	b.Logf("%d records -> %d campaigns; largest: %d reports (%s / %s)",
		len(ds.Records), len(campaigns), campaigns[0].Size(), campaigns[0].Brand, campaigns[0].ScamType)
}

// BenchmarkURLLifespans runs the active lifetime monitor over simulated
// days (virtual clock) and logs the lifespan distribution — the paper's
// "minutes to a few days" claim measured.
func BenchmarkURLLifespans(b *testing.B) {
	ds := benchDataset(b)
	start := time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	var urls []string
	seen := map[string]bool{}
	for _, r := range ds.Records {
		if r.FinalURL != "" && r.Domain != "" && !seen[r.Domain] {
			seen[r.Domain] = true
			urls = append(urls, r.FinalURL)
			if len(urls) == 100 {
				break
			}
		}
	}
	b.ResetTimer()
	var sum monitor.Summary
	for i := 0; i < b.N; i++ {
		clock, advance := monitor.NewVirtualTime(start)
		benchSim.EnableTakedownSchedule(start, clock)
		c := crawler.NewCrawler()
		c.Rewrite = benchSim.CrawlRouter().Rewrite
		m := &monitor.Monitor{Crawler: c, Interval: 3 * time.Hour, Clock: clock, Advance: advance}
		targets, err := m.Run(context.Background(), urls, 40)
		if err != nil {
			b.Fatal(err)
		}
		sum = monitor.Summarize(targets)
	}
	b.StopTimer()
	b.Logf("died %d/%d; lifespan hours min=%.1f med=%.1f max=%.1f",
		sum.Died, sum.Targets, sum.Lifespans.Min, sum.Lifespans.Median, sum.Lifespans.Max)
}
