// Tests for the intra-record enrichment DAG (Options.StepWorkers):
// error-list integrity under concurrent families and the record budget
// bounding a parallel scatter.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/senderid"
	"github.com/smishkit/smishkit/internal/telemetry"
	"github.com/smishkit/smishkit/internal/whois"
)

// failingServices errors on every call, driving every family down its
// degradation path at once.
type failingServices struct{}

var errInjected = errors.New("injected failure")

func (failingServices) Lookup(context.Context, string) (hlr.Result, error) {
	return hlr.Result{}, errInjected
}
func (failingServices) WhoisLookup(context.Context, string) (whois.Record, bool, error) {
	return whois.Record{}, false, errInjected
}
func (failingServices) Summary(context.Context, string) (ctlog.Summary, error) {
	return ctlog.Summary{}, errInjected
}
func (failingServices) Resolutions(context.Context, string) ([]dnsdb.Observation, error) {
	return nil, errInjected
}
func (failingServices) ASOf(context.Context, string) (dnsdb.ASInfo, error) {
	return dnsdb.ASInfo{}, errInjected
}
func (failingServices) Scan(context.Context, string) (avscan.Report, error) {
	return avscan.Report{}, errInjected
}
func (failingServices) GSBLookup(context.Context, string) (avscan.GSBResult, error) {
	return avscan.GSBResult{}, errInjected
}
func (failingServices) Transparency(context.Context, string) (avscan.TransparencyResult, bool, error) {
	return avscan.TransparencyResult{}, false, errInjected
}

// whoisAdapter renames the interface method: core.WhoisLookuper wants
// Lookup, which failingServices already uses for HLR.
type whoisAdapter struct{ failingServices }

func (w whoisAdapter) Lookup(ctx context.Context, domain string) (whois.Record, bool, error) {
	return w.WhoisLookup(ctx, domain)
}

func allFailingServices() Services {
	f := failingServices{}
	return Services{HLR: f, Whois: whoisAdapter{f}, CTLog: f, DNSDB: f, AVScan: f}
}

// dagRecord builds a record that activates every enrichment family: a
// phone sender plus a non-shortened landing URL on scammer-owned
// infrastructure.
func dagRecord(i int) Record {
	return Record{
		ID:         fmt.Sprintf("rec-%04d", i),
		SenderKind: senderid.KindPhone,
		SenderRaw:  "+447700900123",
		ShownURL:   fmt.Sprintf("https://evil-clinic-%d.xyz/login", i),
	}
}

// dagFamilies is the full per-record family set, in familyNames order,
// when every service is wired and the pdns chain dies at its first hop.
var dagFamilies = []string{"hlr", "whois", "ct", "pdns", "vt", "gsb", "gsb_status"}

// TestEnrichParallelStepsErrorIntegrity drives every family of every
// record into its failure path with an 8-wide scatter and asserts the
// shared EnrichmentErrors list never interleaves corruptly: exactly one
// complete entry per family, no torn appends, and the entries in family
// order on every record of every run, whatever order the families
// finished in. Run under -race in CI, this is the data-race guard for the
// per-record mutex.
func TestEnrichParallelStepsErrorIntegrity(t *testing.T) {
	for run := 0; run < 20; run++ {
		reg := telemetry.NewRegistry()
		pipe := mustPipeline(t, allFailingServices(), Options{
			EnrichWorkers:    4,
			StepWorkers:      8,
			AbortFailureRate: -1, // a 100% failure world: the abort guard is not under test
			Telemetry:        reg,
		})
		ds := &Dataset{}
		for i := 0; i < 64; i++ {
			ds.Records = append(ds.Records, dagRecord(i))
		}
		if err := pipe.Enrich(context.Background(), ds); err != nil {
			t.Fatalf("run %d: Enrich aborted with the abort guard disabled: %v", run, err)
		}

		var total int64
		for _, r := range ds.Records {
			fields := make([]string, 0, len(r.EnrichmentErrors))
			for _, e := range r.EnrichmentErrors {
				if e.Field == "" || e.Service == "" || e.Err == "" {
					t.Fatalf("run %d, record %s: torn enrichment error %+v", run, r.ID, e)
				}
				fields = append(fields, e.Field)
				total++
			}
			if strings.Join(fields, ",") != strings.Join(dagFamilies, ",") {
				t.Fatalf("run %d, record %s: error fields %v, want %v in that order",
					run, r.ID, fields, dagFamilies)
			}
		}
		snap := reg.Snapshot()
		if got := snap.Counters["pipeline.enrich.degraded_fields"]; got != total {
			t.Errorf("run %d: degraded_fields counter = %d, records carry %d errors", run, got, total)
		}
		if got := snap.Gauges["pipeline.record.step_par"]; got != 0 {
			t.Errorf("run %d: step_par gauge = %d after Enrich returned, want 0", run, got)
		}
		for _, fam := range dagFamilies {
			if snap.Histograms["pipeline.enrich.family."+fam].Count != 64 {
				t.Errorf("run %d: family %q latency observations = %d, want 64",
					run, fam, snap.Histograms["pipeline.enrich.family."+fam].Count)
			}
		}
	}
}

// hangingServices blocks every call until its context dies — the step
// resolves exactly when a deadline fires, so the test below is driven by
// the budget clock rather than sleeps.
type hangingServices struct{}

func hang(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }

func (hangingServices) Lookup(ctx context.Context, _ string) (hlr.Result, error) {
	return hlr.Result{}, hang(ctx)
}
func (hangingServices) WhoisLookup(ctx context.Context, _ string) (whois.Record, bool, error) {
	return whois.Record{}, false, hang(ctx)
}
func (hangingServices) Summary(ctx context.Context, _ string) (ctlog.Summary, error) {
	return ctlog.Summary{}, hang(ctx)
}
func (hangingServices) Resolutions(ctx context.Context, _ string) ([]dnsdb.Observation, error) {
	return nil, hang(ctx)
}
func (hangingServices) ASOf(ctx context.Context, _ string) (dnsdb.ASInfo, error) {
	return dnsdb.ASInfo{}, hang(ctx)
}
func (hangingServices) Scan(ctx context.Context, _ string) (avscan.Report, error) {
	return avscan.Report{}, hang(ctx)
}
func (hangingServices) GSBLookup(ctx context.Context, _ string) (avscan.GSBResult, error) {
	return avscan.GSBResult{}, hang(ctx)
}
func (hangingServices) Transparency(ctx context.Context, _ string) (avscan.TransparencyResult, bool, error) {
	return avscan.TransparencyResult{}, false, hang(ctx)
}

type hangingWhois struct{ hangingServices }

func (w hangingWhois) Lookup(ctx context.Context, domain string) (whois.Record, bool, error) {
	return w.WhoisLookup(ctx, domain)
}

// TestRecordBudgetBoundsParallelSteps pins the budget invariant on the DAG
// path: families running in parallel share ONE per-record deadline, so a
// record whose every step hangs resolves in ~RecordBudget — not
// families × budget, and not forever. The hanging services return exactly
// when the budget context fires (no sleeps), making the timing
// deadline-driven and scheduling-robust.
func TestRecordBudgetBoundsParallelSteps(t *testing.T) {
	const budget = 150 * time.Millisecond
	pipe := mustPipeline(t, Services{
		HLR:    hangingServices{},
		Whois:  hangingWhois{},
		CTLog:  hangingServices{},
		DNSDB:  hangingServices{},
		AVScan: hangingServices{},
	}, Options{
		EnrichWorkers:    1,
		StepWorkers:      8,
		RecordBudget:     budget,
		AbortFailureRate: -1,
	})
	ds := &Dataset{Records: []Record{dagRecord(0), dagRecord(1)}}

	start := time.Now()
	if err := pipe.Enrich(context.Background(), ds); err != nil {
		t.Fatalf("budget expiry aborted the run: %v", err)
	}
	elapsed := time.Since(start)

	// Two records, one at a time, each with 7 hanging families: a
	// sequential pipeline without the shared budget would sit in the first
	// call forever. The generous upper bound (5 budgets for 2 records)
	// keeps slow CI honest while still proving the per-record time box.
	if elapsed < budget {
		t.Errorf("Enrich returned in %v, before the %v budget could fire", elapsed, budget)
	}
	if elapsed > 5*budget {
		t.Errorf("Enrich took %v; budget %v per record did not bound the parallel scatter", elapsed, budget)
	}
	for _, r := range ds.Records {
		if len(r.EnrichmentErrors) != len(dagFamilies) {
			t.Fatalf("record %s: %d degraded fields, want %d: %+v",
				r.ID, len(r.EnrichmentErrors), len(dagFamilies), r.EnrichmentErrors)
		}
		for _, e := range r.EnrichmentErrors {
			if !strings.Contains(e.Err, context.DeadlineExceeded.Error()) {
				t.Errorf("record %s field %s: err = %q, want the budget deadline", r.ID, e.Field, e.Err)
			}
		}
	}
}

// TestAnnotateStopsOnDeadContext pins the satellite fix: a dead run must
// not burn CPU annotating records it will discard.
func TestAnnotateStopsOnDeadContext(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := mustPipeline(t, Services{}, Options{Telemetry: reg})
	ds := &Dataset{}
	for i := 0; i < 1024; i++ {
		ds.Records = append(ds.Records, Record{Text: "Your parcel is held, confirm at once"})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pipe.Annotate(ctx, ds); err == nil {
		t.Fatal("Annotate on a dead context returned nil")
	}
	// Workers check ctx between records: at most a worker's-worth of
	// records may have been labeled before the check, not the whole set.
	if got := reg.Snapshot().Counters["pipeline.annotate.records"]; got > 64 {
		t.Errorf("dead-context Annotate still labeled %d records", got)
	}
}

func TestNewPipelineRejectsNegativeStepWorkers(t *testing.T) {
	if _, err := NewPipeline(Services{}, Options{StepWorkers: -1}); err == nil {
		t.Error("negative StepWorkers accepted")
	}
}
