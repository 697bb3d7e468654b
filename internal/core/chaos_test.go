// Chaos soak: the full pipeline against every enrichment service
// misbehaving at once. Lives in package core_test because the fault and
// breaker layers import core; the CI chaos job runs exactly this file:
//
//	go test -race -run TestChaosSoak -count=3 ./internal/core/
package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/faultinject"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/resilience"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// chaosSeed fixes both the synthetic world and the injected faults; a
// failing CI run reproduces locally from this one number.
const chaosSeed = 1337

// chaosFaults is the soak's fault mix: ~30% of calls fail and another
// 10% are slowed on every service, and whois is down outright.
var chaosFaults = faultinject.Config{
	Seed: chaosSeed,
	Default: faultinject.ServiceFaults{
		ErrorRate: 0.15,
		Rate429:   0.05,
		Rate5xx:   0.08,
		HangRate:  0.02,
		SlowRate:  0.10,
		Latency:   time.Millisecond,
	},
	// Every whois call fails, so the breaker's 5 consecutive failures are
	// certain whatever the worker interleaving.
	PerService: map[string]faultinject.ServiceFaults{"whois": {ErrorRate: 1}},
}

// TestChaosSoak drives a study-sized run with ~30% of every service's
// calls failing (transport errors, 5xx, rate limits, latency spikes,
// hangs) plus a whois outage, and asserts the resilience contract: the
// run completes, every lost field is recorded on its record, and the
// whois breaker demonstrably opened. Without breakers, the same curated
// set enriched one record and one family at a time and 64×4 wide must
// come out byte-identical: each fault is a function of its key, not of
// call order.
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
	faults := faultinject.New(chaosFaults, reg)
	breakers := resilience.New(resilience.Config{
		Breaker: resilience.BreakerConfig{FailureThreshold: 5, OpenTimeout: 50 * time.Millisecond},
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

	// Breaker transitions are visible: the whois outage must have tripped
	// its breaker at least once, and the open breaker must have shed calls.
	if got := snap.Counters["breaker.whois.opens"]; got == 0 {
		t.Error("whois breaker never opened despite a full whois outage")
	}
	bs := breakers.Stats()["whois"]
	if bs.ShortCircuits == 0 {
		t.Error("open whois breaker short-circuited no calls")
	}
	t.Logf("records=%d degraded=%d fields=%d whois: opens=%d shorts=%d",
		len(ds.Records), degradedRecs, degradedFields, bs.Opens, bs.ShortCircuits)

	narrow := enrichRecords(t, sim, reports, 1, 1)
	if wide := enrichRecords(t, sim, reports, 64, 4); !bytes.Equal(narrow, wide) {
		t.Error("chaos records differ between 1×1 and 64×4 enrichment widths")
	}
}

// enrichRecords curates reports and enriches the first 100 records
// through chaosFaults with no breaker, workers records and steps families
// at a time, and returns the records' JSON. The call timeout outlasts a
// call's retry backoff, so only injected hangs reach it (each costs the
// 1×1 run a second, hence the subset), and the record budget never fires.
// The failure-rate abort is off: injected faults return at once while
// real calls take a round trip, so a wide run's first completions are
// mostly whois failures and can cross the 0.9 threshold on their own.
func enrichRecords(t *testing.T, sim *core.Simulation, reports []forum.RawReport, workers, steps int) []byte {
	t.Helper()
	pipe, err := core.NewPipelineOver(faultinject.New(chaosFaults, nil).Wrap(core.OpsOf(sim.Services())), core.Options{
		EnrichWorkers:    workers,
		StepWorkers:      steps,
		CallTimeout:      time.Second,
		RecordBudget:     time.Minute,
		AbortFailureRate: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := pipe.Curate(reports)
	ds.Records = ds.Records[:min(100, len(ds.Records))]
	start := time.Now()
	if err := pipe.Enrich(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d×%d: enriched %d records in %v", workers, steps, len(ds.Records), time.Since(start))
	raw, err := json.Marshal(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
