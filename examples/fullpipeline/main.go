// Fullpipeline walks every stage of the paper's methodology explicitly:
// world generation, booting the forum and intelligence servers, per-forum
// collection over HTTP, screenshot extraction + curation, parallel
// enrichment, annotation, the Cohen's-kappa evaluation against ground
// truth (§3.4), and finally the report.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/smishkit/smishkit"
	"github.com/smishkit/smishkit/internal/annotate"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/enrichcache"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/report"
)

func main() {
	log.SetFlags(0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Stage 0: the synthetic world (substituting real global SMS traffic).
	world := smishkit.GenerateWorld(smishkit.WorldConfig{Seed: 2024, Messages: 3000})
	fmt.Printf("world: %d messages in %d campaigns, %d phishing domains\n",
		len(world.Messages), len(world.Campaigns), len(world.Domains))

	// Stage 1: boot the five forums and six intelligence services.
	sim, err := core.StartSimulation(world)
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()
	fmt.Printf("forums up: twitter=%s smishtank=%s\n", sim.TwitterURL, sim.SmishtankURL)

	// Stage 2: collect over HTTP, forum by forum (§3.1).
	start := time.Now()
	reports, counts, err := forum.CollectAll(ctx, sim.Collectors())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d raw reports in %v:\n", len(reports), time.Since(start).Round(time.Millisecond))
	for _, f := range corpus.Forums {
		fmt.Printf("  %-12s %d\n", f, counts[f])
	}

	// Stage 3: extract + curate (§3.2), with the structured-vision rung.
	// The enrichment cache sits between the pipeline and the service
	// clients: 3000 messages collapse onto a few hundred distinct domains
	// and numbers, so most lookups are answered locally.
	cache := enrichcache.New(enrichcache.Config{ServeStale: true}, sim.Telemetry)
	pipe, err := core.NewPipelineOver(cache.Wrap(core.OpsOf(sim.Services())), core.Options{
		Extractor:     smishkit.ExtractorStructuredVision,
		EnrichWorkers: 12,
		Telemetry:     sim.Telemetry,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds := pipe.Curate(reports)
	fmt.Printf("curated %d records (decoys rejected: %d, empty: %d)\n",
		len(ds.Records), ds.DecoysRejected, ds.EmptyDropped)

	// Stage 4: enrichment fan-out (§3.3).
	start = time.Now()
	if err := pipe.Enrich(ctx, ds); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enriched in %v\n", time.Since(start).Round(time.Millisecond))

	// Stage 5: annotation (§3.3.6) — a parallel CPU stage, cancellable.
	if err := pipe.Annotate(ctx, ds); err != nil {
		log.Fatal(err)
	}

	// Stage 6: the §3.4 evaluation — compare annotations with the world's
	// ground truth over a sample, exactly the protocol of the paper's
	// 150-message golden set.
	truthByText := map[string]annotate.Annotation{}
	for _, m := range world.Messages {
		truthByText[m.Text] = annotate.Annotation{
			ScamType: m.ScamType, Language: m.Language, Brand: m.Brand, Lures: m.Lures,
		}
	}
	var golden, predicted []annotate.Annotation
	for _, r := range ds.Records {
		truth, ok := truthByText[r.Text]
		if !ok {
			continue
		}
		golden = append(golden, truth)
		predicted = append(predicted, r.Annotation)
		if len(golden) == 150 {
			break
		}
	}
	if agr, err := annotate.Evaluate(golden, predicted); err == nil {
		fmt.Printf("annotation agreement (n=%d): scam κ=%.2f brand κ=%.2f lure κ=%.2f lang κ=%.2f\n",
			agr.N, agr.ScamKappa, agr.BrandKappa, agr.LureKappa, agr.LangKappa)
	}

	// Stage 7: the paper's exhibits.
	if err := report.RenderAll(os.Stdout, ds); err != nil {
		log.Fatal(err)
	}

	// Stage 8: how the run behaved — stage spans, curation outcomes, and
	// per-service client latencies (also live at sim.DebugURL).
	// The layers were built by hand here (no Study), so assemble the Stats
	// value directly and render the same sections Study.Stats would.
	fmt.Println()
	stats := smishkit.Stats{Telemetry: sim.Telemetry.Snapshot(), Cache: cache.Stats()}
	if err := smishkit.WriteStats(os.Stdout, stats, smishkit.SectionTelemetry, smishkit.SectionCache); err != nil {
		log.Fatal(err)
	}
}
