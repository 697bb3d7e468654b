// Chaosdrill runs the same study twice — once clean, once with every
// enrichment service failing 30% of the time behind circuit breakers —
// and diffs the outcome. The point of the resilience layer is that the
// second run still finishes: records lose individual fields (each loss
// recorded on the record), breakers shed load from the worst services,
// and the report still renders from what survived.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"github.com/smishkit/smishkit"
)

func main() {
	log.SetFlags(0)

	const seed, messages = 21, 1500
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	clean := runStudy(ctx, smishkit.Options{Seed: seed, Messages: messages})
	fmt.Printf("clean run: %d records, %d degraded\n\n", len(clean.Records), countDegraded(clean))

	// The chaos run reuses the seed: same world, plus a deterministic 30%
	// fault mix on every service. Breakers wrap the (absent) cache slot
	// outside-in; budgets bound hung calls.
	chaotic := runStudyWithStats(ctx, smishkit.Options{
		Seed:     seed,
		Messages: messages,
		Faults: &smishkit.FaultConfig{
			Seed: seed,
			Default: smishkit.ServiceFaults{
				ErrorRate: 0.15,
				Rate5xx:   0.08,
				Rate429:   0.05,
				HangRate:  0.02,
				SlowRate:  0.10,
				Latency:   time.Millisecond,
			},
		},
		Resilience: &smishkit.ResilienceConfig{
			Breaker: smishkit.BreakerConfig{FailureThreshold: 5, OpenTimeout: 100 * time.Millisecond},
		},
		Pipeline: smishkit.PipelineOptions{
			CallTimeout:  500 * time.Millisecond,
			RecordBudget: 10 * time.Second,
		},
	})

	fmt.Printf("chaos run: %d records, %d degraded\n\n", len(chaotic.Records), countDegraded(chaotic))

	// Which fields were lost, and to which services?
	lost := map[string]int{}
	for _, r := range chaotic.Records {
		for _, e := range r.EnrichmentErrors {
			lost[e.Service+" -> "+e.Field]++
		}
	}
	keys := make([]string, 0, len(lost))
	for k := range lost {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("fields lost to failures:")
	for _, k := range keys {
		fmt.Printf("  %-22s %4d\n", k, lost[k])
	}
	fmt.Println()
}

func runStudy(ctx context.Context, opts smishkit.Options) *smishkit.Dataset {
	study, err := smishkit.NewStudy(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()
	ds, err := study.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	return ds
}

func runStudyWithStats(ctx context.Context, opts smishkit.Options) *smishkit.Dataset {
	study, err := smishkit.NewStudy(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()
	ds, err := study.Run(ctx)
	if err != nil {
		log.Fatal(err) // a 30% outage must degrade, not abort
	}
	if err := smishkit.WriteStats(os.Stdout, study.Stats(), smishkit.SectionResilience); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	return ds
}

func countDegraded(ds *smishkit.Dataset) int {
	n := 0
	for _, r := range ds.Records {
		if r.Degraded() {
			n++
		}
	}
	return n
}
