package shard

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/batchmux"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/enrichcache"
	"github.com/smishkit/smishkit/internal/faultinject"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/resilience"
	"github.com/smishkit/smishkit/internal/telemetry"
	"github.com/smishkit/smishkit/internal/whois"
)

// recorder is a healthy base for every service, with every bulk seam, that
// logs which keys reach it per method: per-key calls in calls, the key
// list of each bulk call in bulk.
type recorder struct {
	dropLast bool // bulk HLR answers one slot fewer than it was asked

	mu    sync.Mutex
	calls map[string][]string
	bulk  map[string][][]string
}

func newRecorder() *recorder {
	return &recorder{calls: map[string][]string{}, bulk: map[string][][]string{}}
}

func (r *recorder) note(method, key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls[method] = append(r.calls[method], key)
}

func (r *recorder) noteBulk(method string, keys []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bulk[method] = append(r.bulk[method], append([]string(nil), keys...))
}

func (r *recorder) perKey(method string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[method]
}

func (r *recorder) bulkCalls(method string) [][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bulk[method]
}

func (r *recorder) services() core.Services {
	return core.Services{HLR: recHLR{r}, Whois: recWhois{r}, CTLog: recCT{r},
		DNSDB: recDNS{r}, AVScan: recAV{r}, Shortener: recShort{r}}
}

// answer runs one bulk call, answering each key with val.
func answer[V any](r *recorder, method string, keys []string, val func(string) V) ([]V, []error) {
	r.noteBulk(method, keys)
	vals := make([]V, len(keys))
	for i, k := range keys {
		vals[i] = val(k)
	}
	return vals, make([]error, len(keys))
}

type recHLR struct{ r *recorder }

func hlrOf(k string) hlr.Result { return hlr.Result{Known: true, Source: k} }

func (f recHLR) Lookup(_ context.Context, k string) (hlr.Result, error) {
	f.r.note("hlr", k)
	return hlrOf(k), nil
}

func (f recHLR) LookupBatch(_ context.Context, keys []string) ([]hlr.Result, []error) {
	vals, errs := answer(f.r, "hlr", keys, hlrOf)
	if f.r.dropLast {
		vals, errs = vals[:len(vals)-1], errs[:len(errs)-1]
	}
	return vals, errs
}

type recWhois struct{ r *recorder }

func (f recWhois) Lookup(_ context.Context, k string) (whois.Record, bool, error) {
	f.r.note("whois", k)
	return whois.Record{Domain: k}, true, nil
}

type recCT struct{ r *recorder }

func (f recCT) Summary(_ context.Context, k string) (ctlog.Summary, error) {
	f.r.note("ct", k)
	return ctlog.Summary{Domain: k}, nil
}

type recDNS struct{ r *recorder }

func pdnsOf(k string) []dnsdb.Observation { return []dnsdb.Observation{{Domain: k}} }

func (f recDNS) Resolutions(_ context.Context, k string) ([]dnsdb.Observation, error) {
	f.r.note("pdns", k)
	return pdnsOf(k), nil
}

func (f recDNS) ResolutionsBatch(_ context.Context, keys []string) ([][]dnsdb.Observation, []error) {
	return answer(f.r, "pdns", keys, pdnsOf)
}

func (f recDNS) ASOf(_ context.Context, k string) (dnsdb.ASInfo, error) {
	f.r.note("asn", k)
	return dnsdb.ASInfo{ASN: 64500}, nil
}

type recAV struct{ r *recorder }

func scanOf(k string) avscan.Report   { return avscan.Report{URL: k} }
func gsbOf(k string) avscan.GSBResult { return avscan.GSBResult{URL: k} }

func (f recAV) Scan(_ context.Context, k string) (avscan.Report, error) {
	f.r.note("scan", k)
	return scanOf(k), nil
}

func (f recAV) ScanBatch(_ context.Context, keys []string) ([]avscan.Report, []error) {
	return answer(f.r, "scan", keys, scanOf)
}

func (f recAV) GSBLookup(_ context.Context, k string) (avscan.GSBResult, error) {
	f.r.note("gsb", k)
	return gsbOf(k), nil
}

func (f recAV) GSBLookupBatch(_ context.Context, keys []string) ([]avscan.GSBResult, []error) {
	return answer(f.r, "gsb", keys, gsbOf)
}

func (f recAV) Transparency(_ context.Context, k string) (avscan.TransparencyResult, bool, error) {
	f.r.note("transparency", k)
	return avscan.TransparencyResult{URL: k}, false, nil
}

type recShort struct{ r *recorder }

func (f recShort) Expand(_ context.Context, service, code string) (string, error) {
	f.r.note("expand", service+"/"+code)
	return "https://target.example/" + code, nil
}

// newTestStacks builds a process's tiers over base with one stack per
// registry in shardRegs, the process tiers recording on reg.
func newTestStacks(t *testing.T, base core.Services, cfg StackConfig, reg *telemetry.Registry, shardRegs ...*telemetry.Registry) []*Stack {
	t.Helper()
	stacks, _, err := NewStacks(base, cfg, reg, shardRegs)
	if err != nil {
		t.Fatal(err)
	}
	return stacks
}

// newTestStack builds a process with one stack, every tier recording on
// reg: the unsharded layout.
func newTestStack(t *testing.T, base core.Services, cfg StackConfig, reg *telemetry.Registry) *Stack {
	t.Helper()
	return newTestStacks(t, base, cfg, reg, reg)[0]
}

// lookupAll looks every key up concurrently through o, so keys share a
// batch window, and returns the answers in key order.
func lookupAll(o core.Ops, keys []string) ([]hlr.Result, []error) {
	vals := make([]hlr.Result, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], errs[i] = o.HLR.Call(context.Background(), k)
		}()
	}
	wg.Wait()
	return vals, errs
}

// TestStackComposesTiersInOrder pins NewStacks' tier order, faults <-
// batchmux <- cache <- breaker <- pipeline, by where each call stops, and
// its split: stacks of one process share the batch windows below their
// own caches.
func TestStackComposesTiersInOrder(t *testing.T) {
	rec := newRecorder()
	reg := telemetry.NewRegistry()
	st := newTestStack(t, rec.services(), StackConfig{
		Faults: &faultinject.Config{Seed: 1, PerService: map[string]faultinject.ServiceFaults{
			"hlr":   {SlowRate: 1, Latency: time.Nanosecond}, // every gate decision counts a spike
			"whois": {ErrorRate: 1},
		}},
		Batch:      &batchmux.Config{Window: 4, FlushInterval: time.Hour},
		Cache:      &enrichcache.Config{},
		Resilience: &resilience.Config{Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Hour}},
	}, reg)
	s := st.ops
	count := func(name string) int64 { return reg.Counter(name).Value() }
	ctx := context.Background()

	// The fault gate decides once per key inside a bulk flush.
	keys := []string{"+447700900001", "+447700900002", "+447700900003", "+447700900004"}
	if _, errs := lookupAll(s, keys); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	if b := rec.bulkCalls("hlr"); len(b) != 1 || len(b[0]) != 4 || len(rec.perKey("hlr")) != 0 {
		t.Fatalf("upstream HLR saw bulk calls %v and per-key calls %v, want one 4-key bulk call", b, rec.perKey("hlr"))
	}
	if n := count("fault.hlr.latency_spikes"); n != 4 {
		t.Errorf("fault gate made %d decisions for one 4-key flush, want 4", n)
	}

	// A cache hit reaches no batch window and no fault gate.
	if _, err := s.HLR.Call(ctx, keys[0]); err != nil {
		t.Fatal(err)
	}
	if count("cache.hlr.hits") != 1 || count("batch.hlr.batch_size") != 4 || count("batch.hlr.coalesced") != 0 ||
		count("fault.hlr.latency_spikes") != 4 || len(rec.bulkCalls("hlr")) != 1 {
		t.Errorf("a cache hit reached a lower tier: %v", reg.Snapshot().Counters)
	}

	// An injected fault is counted by the breaker and is not cached as a
	// positive: the second call misses again.
	for i := 0; i < 2; i++ {
		if _, err := s.Whois.Call(ctx, "evil.example"); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("whois call %d: err = %v, want an injected fault", i, err)
		}
	}
	if count("breaker.whois.failures") != 2 || count("cache.whois.misses") != 2 || st.cache.Stats()["whois"].Entries != 0 {
		t.Errorf("injected faults: breaker failures %d, cache misses %d, entries %d; want 2, 2, 0",
			count("breaker.whois.failures"), count("cache.whois.misses"), st.cache.Stats()["whois"].Entries)
	}

	// A call shed by the now open breaker reaches neither the cache nor
	// anything below it.
	if _, err := s.Whois.Call(ctx, "evil.example"); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("third whois call: err = %v, want the open breaker's ErrOpen", err)
	}
	if count("cache.whois.misses") != 2 || count("cache.whois.hits") != 0 || count("fault.whois.injected") != 2 ||
		len(rec.perKey("whois")) != 0 {
		t.Errorf("a shed call reached a lower tier: %v", reg.Snapshot().Counters)
	}

	// Two stacks of one process share the batch windows but not the
	// caches: keys looked up through both land in one bulk call, and a key
	// stack 0 has cached is a miss in stack 1.
	rec2, reg2 := newRecorder(), telemetry.NewRegistry()
	pair := newTestStacks(t, rec2.services(), StackConfig{
		Batch: &batchmux.Config{Window: 2, FlushInterval: 5 * time.Second},
		Cache: &enrichcache.Config{},
	}, reg2, reg2.Prefixed("shard.0."), reg2.Prefixed("shard.1."))
	lookup := func(keys []string, via ...*Stack) { // keys[i] through via[i], all at once
		var wg sync.WaitGroup
		for i, k := range keys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := via[i].ops.HLR.Call(ctx, k); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	lookup(keys[:2], pair[0], pair[1])
	if b := rec2.bulkCalls("hlr"); len(b) != 1 || len(b[0]) != 2 {
		t.Errorf("two stacks' keys reached upstream as bulk calls %v, want one 2-key call", b)
	}
	lookup(keys[:1], pair[0])
	lookup(keys[:2], pair[1], pair[0])
	count2 := func(name string) int64 { return reg2.Counter(name).Value() }
	if count2("shard.0.cache.hlr.hits") != 1 || count2("shard.1.cache.hlr.hits") != 0 ||
		count2("shard.1.cache.hlr.misses") != 2 || count2("batch.hlr.flushes") != 2 || len(rec2.bulkCalls("hlr")) != 2 {
		t.Errorf("a key cached by stack 0 was not a miss in stack 1: %v", reg2.Snapshot().Counters)
	}

	// Only the fault tier keeps the Bulk form.
	for _, c := range []struct {
		tier string
		wrap func(core.Ops) core.Ops
		bulk bool
	}{
		{"faults", faultinject.New(faultinject.Config{Default: faultinject.ServiceFaults{ErrorRate: 0.1}}, nil).Wrap, true},
		{"batchmux", batchmux.New(batchmux.Config{}, nil).Wrap, false},
		{"cache", enrichcache.New(enrichcache.Config{}, nil).Wrap, false},
		{"breaker", resilience.New(resilience.Config{}, nil).Wrap, false},
		{"stack", func(core.Ops) core.Ops { return s }, false},
	} {
		w := c.wrap(core.OpsOf(rec.services()))
		h := w.HLR.Bulk != nil
		d := w.PDNS.Bulk != nil
		a := w.Scan.Bulk != nil && w.GSB.Bulk != nil
		if h != c.bulk || d != c.bulk || a != c.bulk {
			t.Errorf("%s: bulk seams hlr=%v dnsdb=%v avscan=%v, want %v", c.tier, h, d, a, c.bulk)
		}
	}
}

// TestShortBulkUnderFaultsIsNotCached: a bulk answer one slot short,
// passed through an enabled fault gate, degrades the key it dropped; the
// cache must not store a zero hlr.Result for it as a positive answer.
func TestShortBulkUnderFaultsIsNotCached(t *testing.T) {
	rec := newRecorder()
	rec.dropLast = true
	st := newTestStack(t, rec.services(), StackConfig{
		Faults: &faultinject.Config{Seed: 1, Default: faultinject.ServiceFaults{ErrorRate: 0.01}},
		Batch:  &batchmux.Config{Window: 4, FlushInterval: time.Hour},
		Cache:  &enrichcache.Config{},
	}, telemetry.NewRegistry())

	vals, errs := lookupAll(st.ops, []string{"+447700900001", "+447700900002", "+447700900003", "+447700900004"})
	answered, missing := 0, 0
	for i, err := range errs {
		switch {
		case errors.Is(err, core.ErrMissingSlot):
			missing++
		case err == nil && !vals[i].Known:
			t.Errorf("key %d: zero hlr.Result served as a positive answer", i)
		case err == nil:
			answered++
		}
	}
	if missing != 1 {
		t.Errorf("%d keys report the missing slot, want 1 (errors %v)", missing, errs)
	}
	if e := st.cache.Stats()["hlr"].Entries; e != answered {
		t.Errorf("cache holds %d HLR entries, want %d (only the answered keys)", e, answered)
	}
}

// TestCanonicalKeys: each op's canonical key decides both tiers' sharing.
// Folded spellings of one name share a cache entry and a batch-window
// slot, and the window sends the folded key upstream; URLs that differ
// only in case stay distinct.
func TestCanonicalKeys(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		method, service string
		a, b, canonical string // canonical is "" when a and b are distinct keys
		batched         bool
		call            func(core.Ops, string) error
	}{
		{"hlr", "hlr", "+447700900123", " +447700900123", "+447700900123", true,
			func(o core.Ops, k string) error { _, err := o.HLR.Call(ctx, k); return err }},
		{"whois", "whois", "Bit.ly", " bit.ly", "bit.ly", false,
			func(o core.Ops, k string) error { _, err := o.Whois.Call(ctx, k); return err }},
		{"ct", "ctlog", "Bit.ly", " bit.ly", "bit.ly", false,
			func(o core.Ops, k string) error { _, err := o.CT.Call(ctx, k); return err }},
		{"pdns", "dnsdb", "Bit.ly", " bit.ly", "bit.ly", true,
			func(o core.Ops, k string) error { _, err := o.PDNS.Call(ctx, k); return err }},
		{"expand", "shortener", "Bit.ly", " bit.ly", "bit.ly/abc", false,
			func(o core.Ops, k string) error {
				_, err := o.Expand.Call(ctx, core.ShortLink{Service: k, Code: "abc"})
				return err
			}},
		{"scan", "avscan", "https://bit.ly/Abc", "https://bit.ly/abc", "", true,
			func(o core.Ops, k string) error { _, err := o.Scan.Call(ctx, k); return err }},
		{"gsb", "avscan", "https://bit.ly/Abc", "https://bit.ly/abc", "", true,
			func(o core.Ops, k string) error { _, err := o.GSB.Call(ctx, k); return err }},
		{"transparency", "avscan", "https://bit.ly/Abc", "https://bit.ly/abc", "", false,
			func(o core.Ops, k string) error { _, err := o.Transparency.Call(ctx, k); return err }},
	} {
		t.Run(c.method, func(t *testing.T) {
			want := 2
			if c.canonical != "" {
				want = 1
			}
			// Cache: a then b.
			st := newTestStack(t, newRecorder().services(), StackConfig{Cache: &enrichcache.Config{}}, nil)
			for _, k := range []string{c.a, c.b} {
				if err := c.call(st.ops, k); err != nil {
					t.Fatal(err)
				}
			}
			if e := st.cache.Stats()[c.service].Entries; e != want {
				t.Errorf("cache entries = %d, want %d", e, want)
			}
			if !c.batched {
				return
			}
			// Window: a and b together. Distinct keys fill the window; one
			// shared slot waits for the flush timer.
			rec := newRecorder()
			st = newTestStack(t, rec.services(), StackConfig{
				Batch: &batchmux.Config{Window: 2, FlushInterval: 100 * time.Millisecond},
			}, nil)
			var wg sync.WaitGroup
			for _, k := range []string{c.a, c.b} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := c.call(st.ops, k); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			b := rec.bulkCalls(c.method)
			if len(b) != 1 || len(b[0]) != want || (want == 1 && b[0][0] != c.canonical) {
				t.Errorf("bulk calls = %q, want one call with %d slot(s)", b, want)
			}
		})
	}
}

// TestTierSeamAllocs pins the allocations of a warm cache hit through
// breaker <- cache <- batchmux, called through the stack's ops as the
// pipeline calls them: none for HLR, WHOIS and ASOf, and one for Expand
// (its service/code cache key). A tier closure that moved a fetch closure
// to the heap would show here.
func TestTierSeamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st := newTestStack(t, newRecorder().services(), StackConfig{
		Batch:      &batchmux.Config{},
		Cache:      &enrichcache.Config{},
		Resilience: &resilience.Config{},
	}, telemetry.NewRegistry())
	o, ctx := st.ops, context.Background()
	for _, c := range []struct {
		method string
		want   float64
		call   func()
	}{
		{"hlr", 0, func() { _, _ = o.HLR.Call(ctx, "+447700900123") }},
		{"whois", 0, func() { _, _ = o.Whois.Call(ctx, "evil.example") }},
		{"asn", 0, func() { _, _ = o.ASN.Call(ctx, "192.0.2.1") }},
		{"expand", 1, func() { _, _ = o.Expand.Call(ctx, core.ShortLink{Service: "bit.ly", Code: "abc"}) }},
	} {
		c.call() // warm the cache
		if got := testing.AllocsPerRun(200, c.call); got != c.want {
			t.Errorf("%s: warm hit makes %v allocations, want %v", c.method, got, c.want)
		}
	}
}
