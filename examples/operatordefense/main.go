// Operatordefense replays a synthetic world's SMS traffic through the
// operator-side gateway the paper's §7.2 asks MNOs to build: a three-stage
// XDR filter (sender plausibility, shortened-URL expansion against threat
// intel, content classifier) in front of subscriber inboxes, with the 7726
// reporting loop feeding confirmed domains back into the blocklist.
//
// The replay runs twice — filter off (status quo) and filter on — and
// prints the delta, plus how the feedback loop catches an evasive campaign
// that slips past the classifier.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/smishkit/smishkit"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/enrichcache"
	"github.com/smishkit/smishkit/internal/gateway"
	"github.com/smishkit/smishkit/internal/shortener"
	"github.com/smishkit/smishkit/internal/xdrfilter"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	world := smishkit.GenerateWorld(smishkit.WorldConfig{Seed: 99, Messages: 3000})
	sim, err := core.StartSimulation(world)
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()

	// Train the detector on an earlier "labeled dataset" (a different
	// seed, so no message-level leakage), exactly the §7.2 proposal.
	training := smishkit.TrainingDocs(
		smishkit.GenerateWorld(smishkit.WorldConfig{Seed: 7, Messages: 3000}), 8, 800)
	model, err := smishkit.TrainDetector(training, true)
	if err != nil {
		log.Fatal(err)
	}

	// Threat-intel blocklist: domains already flagged widely by AV vendors.
	var blocklist []string
	for name, d := range world.Domains {
		if d.Detectability > 0.6 {
			blocklist = append(blocklist, name)
		}
	}
	fmt.Printf("world: %d messages, %d domains (%d on the intel blocklist)\n",
		len(world.Messages), len(world.Domains), len(blocklist))

	// One collector across every replay: the per-action latency histograms
	// below aggregate all three filter configurations.
	collector := smishkit.NewCollector()

	run := func(name string, f *xdrfilter.Filter) gateway.Stats {
		gw := gateway.New(f).Instrument(collector)
		for _, m := range world.Messages {
			if _, err := gw.Submit(ctx, m.Sender.Value, "+447700900000", m.Text); err != nil {
				log.Fatal(err)
			}
		}
		// Mix in benign traffic to measure collateral damage.
		hamBlocked := 0
		for _, ham := range corpus.GenerateHam(100, 500) {
			msg, err := gw.Submit(ctx, "+447700900123", "+447700900001", ham)
			if err != nil {
				log.Fatal(err)
			}
			if msg.Action == "blocked" {
				hamBlocked++
			}
		}
		st := gw.Snapshot()
		fmt.Printf("%-22s blocked %4d / flagged %4d of %d smishes; ham casualties %d/500\n",
			name+":", st.Blocked-hamBlocked, st.Flagged, len(world.Messages), hamBlocked)
		return st
	}

	// Status quo: no filtering at all.
	run("no filter", xdrfilter.New(xdrfilter.Config{}))
	// Blocklist only (no shortener expansion): hidden redirects slip by.
	run("blocklist only", xdrfilter.New(xdrfilter.Config{Blocklist: blocklist}))
	// Full stack: blocklist + expansion + classifier + sender checks. The
	// expander goes through the enrichment cache: repeated copies of a
	// smish resolve their short link locally, takedowns are negative-cached
	// instead of re-queried, and a shortener 5xx serves the last known
	// landing URL rather than letting the message through unexpanded.
	cache := enrichcache.New(enrichcache.Config{ServeStale: true}, collector)
	full := xdrfilter.New(xdrfilter.Config{
		Blocklist:       blocklist,
		Expander:        expandOp(cache.Wrap(core.OpsOf(core.Services{Shortener: shortener.NewClient(sim.Endpoints.Shortener.URL)})).Expand),
		Classifier:      model,
		BlockBadSenders: true,
	})
	run("full XDR stack", full)

	// The 7726 feedback loop: an evasive campaign the classifier misses.
	gw := gateway.New(xdrfilter.New(xdrfilter.Config{Classifier: model}))
	evasive := "weekend photos are up! https://fresh-album-host.top/a"
	first, _ := gw.Submit(ctx, "+447700900500", "+447700900002", evasive)
	fmt.Printf("\nevasive campaign, first copy: %s (%s)\n", first.Action, first.Reason)
	added := gw.Report("+447700900002", evasive) // subscriber forwards to 7726
	second, _ := gw.Submit(ctx, "+447700900501", "+447700900003", evasive)
	fmt.Printf("after one 7726 report (+%d blocklisted): second copy %s (%s)\n",
		added, second.Action, second.Reason)

	// How the gateway behaved across all replays: submit/deliver/block
	// latency percentiles and traffic counters.
	// No Study here — the gateway stack was assembled by hand — so build
	// the Stats value directly for the unified renderer.
	fmt.Println()
	stats := smishkit.Stats{Telemetry: collector.Snapshot(), Cache: cache.Stats()}
	if err := smishkit.WriteStats(os.Stdout, stats, smishkit.SectionTelemetry, smishkit.SectionCache); err != nil {
		log.Fatal(err)
	}
}

// expandOp adapts a shortener Expand op to the filter's Expander.
type expandOp core.Op[core.ShortLink, string]

func (op expandOp) Expand(ctx context.Context, service, code string) (string, error) {
	return op.Call(ctx, core.ShortLink{Service: service, Code: code})
}
