// Chaos soak: the full pipeline against every enrichment service
// misbehaving at once. Lives in package core_test because the fault and
// breaker layers import core; the CI chaos job runs exactly this file:
//
//	go test -race -run TestChaosSoak -count=3 ./internal/core/
package core_test

import (
	"context"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/faultinject"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/resilience"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// chaosSeed fixes both the synthetic world and the injected fault
// sequence; a failing CI run reproduces locally from this one number.
const chaosSeed = 1337

// TestChaosSoak drives a study-sized run with ~30% of every service's
// calls failing (transport errors, 5xx, rate limits, latency spikes,
// hangs) plus a deterministic whois flap window, and asserts the
// resilience contract: the run completes, every lost field is recorded on
// its record, and the whois breaker demonstrably opened.
func TestChaosSoak(t *testing.T) {
	w := corpus.Generate(corpus.Config{Seed: chaosSeed, Messages: 300})
	sim, err := core.StartSimulation(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	reports, _, err := forum.CollectAll(context.Background(), sim.Collectors())
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	faults := faultinject.New(faultinject.Config{
		Seed: chaosSeed,
		// ~30% of calls fail and another 10% are slowed, on every service.
		Default: faultinject.ServiceFaults{
			ErrorRate: 0.15,
			Rate429:   0.05,
			Rate5xx:   0.08,
			HangRate:  0.02,
			SlowRate:  0.10,
			Latency:   time.Millisecond,
		},
		// whois flaps in hard windows: 20 consecutive down calls guarantee
		// a breaker trip regardless of worker interleaving.
		PerService: map[string]faultinject.ServiceFaults{
			"whois": {FlapPeriod: 40, FlapDown: 20},
		},
	}, reg)
	breakers := resilience.New(resilience.Config{
		Breaker: resilience.BreakerConfig{FailureThreshold: 5, OpenTimeout: 50 * time.Millisecond},
		// Threshold 2: even with 7 in-flight successes from the previous
		// up-window interleaving into the 20-call down-window, some run of
		// failures reaches 2 (pigeonhole: 20 failures split into <= 8 runs).
		PerService: map[string]resilience.BreakerConfig{
			"whois": {FailureThreshold: 2, OpenTimeout: 20 * time.Millisecond},
		},
	}, reg)

	// Composition order is the production one: pipeline -> breaker ->
	// (cache would sit here) -> faults -> instrumented client.
	ops := breakers.Wrap(faults.Wrap(core.OpsOf(sim.Services())))

	pipe, err := core.NewPipelineOver(ops, core.Options{
		Telemetry:    reg,
		CallTimeout:  250 * time.Millisecond, // bounds injected hangs
		RecordBudget: 5 * time.Second,
		// Pin the DAG path explicitly (4 is also the default): the soak's
		// degradation, breaker, and abort-ratio assertions must hold with
		// a record's enrichment families racing each other.
		StepWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := pipe.Curate(reports)
	if len(ds.Records) == 0 {
		t.Fatal("no records curated")
	}
	if err := pipe.Enrich(context.Background(), ds); err != nil {
		t.Fatalf("Enrich aborted under 30%% chaos; want degraded completion: %v", err)
	}

	// Every record was processed, and the failures left their mark.
	snap := reg.Snapshot()
	if got := snap.Counters["pipeline.enrich.records"]; got != int64(len(ds.Records)) {
		t.Errorf("enriched %d of %d records", got, len(ds.Records))
	}
	var degradedFields, degradedRecs int64
	for _, r := range ds.Records {
		if r.Degraded() {
			degradedRecs++
		}
		for _, e := range r.EnrichmentErrors {
			degradedFields++
			if e.Field == "" || e.Service == "" || e.Err == "" {
				t.Fatalf("incomplete enrichment error on record %s: %+v", r.ID, e)
			}
		}
	}
	if degradedRecs == 0 {
		t.Fatal("30% fault mix degraded no records")
	}
	// Every degraded field carries an EnrichmentError: the telemetry
	// counter and the per-record lists are two views of the same events.
	if got := snap.Counters["pipeline.enrich.degraded_fields"]; got != degradedFields {
		t.Errorf("degraded_fields counter = %d, records carry %d errors", got, degradedFields)
	}
	if got := snap.Counters["pipeline.enrich.degraded_records"]; got != degradedRecs {
		t.Errorf("degraded_records counter = %d, want %d", got, degradedRecs)
	}

	// Faults really were injected on every service in the default mix.
	for _, svc := range []string{"hlr", "ctlog", "dnsdb", "avscan", "shortener"} {
		if snap.Counters["fault."+svc+".injected"] == 0 {
			t.Errorf("no faults injected for %s", svc)
		}
	}

	// Breaker transitions are visible: the whois flap windows must have
	// tripped its breaker at least once, and short-circuited calls must
	// never have reached the fault gate (gate calls = breaker admissions).
	if got := snap.Counters["breaker.whois.opens"]; got == 0 {
		t.Error("whois breaker never opened despite 50% flap windows")
	}
	bs := breakers.Stats()["whois"]
	if bs.ShortCircuits == 0 {
		t.Error("open whois breaker short-circuited no calls")
	}
	t.Logf("records=%d degraded=%d fields=%d whois: opens=%d shorts=%d",
		len(ds.Records), degradedRecs, degradedFields, bs.Opens, bs.ShortCircuits)
}
