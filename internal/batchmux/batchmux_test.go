package batchmux

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// recordingBulk is a bulk backend that logs every batch it receives and
// answers each key with "v:<key>".
type recordingBulk struct {
	mu      sync.Mutex
	batches [][]string
	errFor  map[string]error // keys answered with an error instead
	short   bool             // answer one slot fewer than asked
}

func (r *recordingBulk) call(_ context.Context, keys []string) ([]string, []error) {
	r.mu.Lock()
	r.batches = append(r.batches, append([]string(nil), keys...))
	r.mu.Unlock()
	vals := make([]string, len(keys))
	errs := make([]error, len(keys))
	for i, k := range keys {
		if err := r.errFor[k]; err != nil {
			errs[i] = err
			continue
		}
		vals[i] = "v:" + k
	}
	if r.short && len(vals) > 0 {
		vals = vals[:len(vals)-1]
		errs = errs[:len(errs)-1]
	}
	return vals, errs
}

func (r *recordingBulk) batchCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.batches)
}

func testBatcher(t *testing.T, cfg Config, reg *telemetry.Registry, bulk *recordingBulk) *batcher[string] {
	t.Helper()
	return newBatcher(cfg, make(chan struct{}, maxInFlight), newMetrics(reg, "test"), bulk.call)
}

// concurrentGets issues one get per key from its own goroutine and returns
// the values and errors in key order.
func concurrentGets(ctx context.Context, b *batcher[string], keys []string) ([]string, []error) {
	vals := make([]string, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], errs[i] = b.get(ctx, k)
		}()
	}
	wg.Wait()
	return vals, errs
}

func TestWindowFlushesOnSize(t *testing.T) {
	t.Parallel()
	bulk := &recordingBulk{}
	reg := telemetry.NewRegistry()
	// The interval is effectively infinite: only the size trigger can
	// flush within the test's lifetime.
	b := testBatcher(t, Config{Window: 3, FlushInterval: time.Hour}, reg, bulk)

	vals, errs := concurrentGets(context.Background(), b, []string{"a", "b", "c"})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	want := []string{"v:a", "v:b", "v:c"}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("get %d = %q, want %q", i, vals[i], want[i])
		}
	}
	if got := bulk.batchCount(); got != 1 {
		t.Fatalf("bulk called %d times, want 1", got)
	}
	if got := len(bulk.batches[0]); got != 3 {
		t.Errorf("flush carried %d keys, want 3", got)
	}
	if got := reg.Snapshot().Counters["batch.test.flushes"]; got != 1 {
		t.Errorf("batch.test.flushes = %d, want 1", got)
	}
	if got := reg.Snapshot().Counters["batch.test.batch_size"]; got != 3 {
		t.Errorf("batch.test.batch_size = %d, want 3", got)
	}
}

func TestPartialWindowFlushesOnTimer(t *testing.T) {
	t.Parallel()
	bulk := &recordingBulk{}
	reg := telemetry.NewRegistry()
	// The window can never fill: only the timer can flush.
	b := testBatcher(t, Config{Window: 100, FlushInterval: 10 * time.Millisecond}, reg, bulk)

	start := time.Now()
	vals, errs := concurrentGets(context.Background(), b, []string{"a", "b"})
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("gets failed: %v %v", errs[0], errs[1])
	}
	if vals[0] != "v:a" || vals[1] != "v:b" {
		t.Errorf("got (%q, %q), want (v:a, v:b)", vals[0], vals[1])
	}
	if got := bulk.batchCount(); got != 1 {
		t.Fatalf("bulk called %d times, want 1", got)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("partial window flushed after %v, before the 10ms interval", elapsed)
	}
}

func TestDuplicateKeysCoalesceInWindow(t *testing.T) {
	t.Parallel()
	bulk := &recordingBulk{}
	reg := telemetry.NewRegistry()
	b := testBatcher(t, Config{Window: 100, FlushInterval: 10 * time.Millisecond}, reg, bulk)

	vals, errs := concurrentGets(context.Background(), b, []string{"a", "a", "a", "b"})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	for _, i := range []int{0, 1, 2} {
		if vals[i] != "v:a" {
			t.Errorf("duplicate waiter %d got %q, want v:a", i, vals[i])
		}
	}
	if vals[3] != "v:b" {
		t.Errorf("distinct waiter got %q, want v:b", vals[3])
	}
	if got := bulk.batchCount(); got != 1 {
		t.Fatalf("bulk called %d times, want 1", got)
	}
	if got := len(bulk.batches[0]); got != 2 {
		t.Errorf("flush carried %d keys, want 2 distinct", got)
	}
	if got := reg.Snapshot().Counters["batch.test.coalesced"]; got != 2 {
		t.Errorf("batch.test.coalesced = %d, want 2", got)
	}
}

func TestPerKeyErrorDegradesOneSlot(t *testing.T) {
	t.Parallel()
	boom := errors.New("bad key")
	bulk := &recordingBulk{errFor: map[string]error{"b": boom}}
	b := testBatcher(t, Config{Window: 3, FlushInterval: time.Hour}, nil, bulk)

	vals, errs := concurrentGets(context.Background(), b, []string{"a", "b", "c"})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy keys failed: %v %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], boom) {
		t.Errorf("bad key error = %v, want %v", errs[1], boom)
	}
	if vals[0] != "v:a" || vals[2] != "v:c" {
		t.Errorf("healthy keys got (%q, %q), want (v:a, v:c)", vals[0], vals[2])
	}
}

func TestShortBulkResultDegradesMissingSlot(t *testing.T) {
	t.Parallel()
	bulk := &recordingBulk{short: true}
	b := testBatcher(t, Config{Window: 2, FlushInterval: time.Hour}, nil, bulk)

	_, errs := concurrentGets(context.Background(), b, []string{"a", "b"})
	var missing, healthy int
	for _, err := range errs {
		switch {
		case err == nil:
			healthy++
		case errors.Is(err, core.ErrMissingSlot):
			missing++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if missing != 1 || healthy != 1 {
		t.Errorf("got %d healthy and %d missing slots, want 1 and 1", healthy, missing)
	}
}

func TestGetHonorsContextWhileWaiting(t *testing.T) {
	t.Parallel()
	bulk := &recordingBulk{}
	b := testBatcher(t, Config{Window: 100, FlushInterval: time.Hour}, nil, bulk)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.get(ctx, "a")
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the get park in its window
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("get returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("get did not return after its context was cancelled")
	}
}

// TestWindowCompleterKeepsItsDeadline: the caller whose key completes a
// window does not run the flush itself, so a bulk call that blocks does
// not hold that caller past its own deadline.
func TestWindowCompleterKeepsItsDeadline(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	defer close(release)
	b := newBatcher(Config{Window: 1, FlushInterval: time.Hour}, make(chan struct{}, maxInFlight),
		newMetrics(nil, "test"), func(_ context.Context, keys []string) ([]string, []error) {
			<-release
			return make([]string, len(keys)), make([]error, len(keys))
		})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := b.get(ctx, "a")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("get returned %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the window-completing caller sat in a blocked bulk call past its 50ms deadline")
	}
}

// bulkCapableHLR implements both the per-key and the bulk seam.
type bulkCapableHLR struct{ calls atomic.Int64 }

func (s *bulkCapableHLR) Lookup(context.Context, string) (hlr.Result, error) {
	s.calls.Add(1)
	return hlr.Result{Known: true}, nil
}

func (s *bulkCapableHLR) LookupBatch(_ context.Context, msisdns []string) ([]hlr.Result, []error) {
	s.calls.Add(1)
	out := make([]hlr.Result, len(msisdns))
	for i := range out {
		out[i] = hlr.Result{Known: true, Source: msisdns[i]}
	}
	return out, make([]error, len(msisdns))
}

// perKeyOnlyHLR has no bulk seam, so the mux must fall through.
type perKeyOnlyHLR struct{ calls atomic.Int64 }

func (s *perKeyOnlyHLR) Lookup(context.Context, string) (hlr.Result, error) {
	s.calls.Add(1)
	return hlr.Result{Known: true}, nil
}

func TestMuxBatchesBulkCapableService(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	m := New(Config{Window: 4, FlushInterval: time.Hour}, reg)
	backend := &bulkCapableHLR{}
	wrapped := m.WrapServices(core.Services{HLR: backend}).HLR

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := wrapped.Lookup(context.Background(), fmt.Sprintf("+4477009001%02d", i))
			if err != nil {
				t.Errorf("lookup %d: %v", i, err)
				return
			}
			if want := fmt.Sprintf("+4477009001%02d", i); res.Source != want {
				t.Errorf("lookup %d answered for key %q, want %q", i, res.Source, want)
			}
		}()
	}
	wg.Wait()
	if got := backend.calls.Load(); got != 1 {
		t.Errorf("backend saw %d calls, want 1 bulk call", got)
	}
	if got := m.Stats()["hlr"].Flushes; got != 1 {
		t.Errorf("hlr flushes = %d, want 1", got)
	}
	if got := m.Stats()["hlr"].BatchedKeys; got != 4 {
		t.Errorf("hlr batched keys = %d, want 4", got)
	}
}

func TestMuxFallsThroughWithoutBulkSeam(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	m := New(Config{}, reg)
	backend := &perKeyOnlyHLR{}
	wrapped := m.WrapServices(core.Services{HLR: backend}).HLR

	for i := 0; i < 3; i++ {
		if _, err := wrapped.Lookup(context.Background(), "+447700900123"); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if got := backend.calls.Load(); got != 3 {
		t.Errorf("backend saw %d calls, want 3 per-key calls", got)
	}
	st := m.Stats()["hlr"]
	if st.Fallthrough != 3 {
		t.Errorf("fallthrough = %d, want 3", st.Fallthrough)
	}
	if st.Flushes != 0 {
		t.Errorf("flushes = %d, want 0", st.Flushes)
	}
	if got := reg.Snapshot().Counters["batch.hlr.fallthrough"]; got != 3 {
		t.Errorf("batch.hlr.fallthrough = %d, want 3", got)
	}
}

func TestWrapServicesLeavesUnbatchableServicesAlone(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	m := New(Config{Window: 1}, telemetry.NewRegistry())
	s := m.WrapServices(core.Services{HLR: &bulkCapableHLR{}})
	if _, err := s.HLR.Lookup(ctx, "+447700900123"); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats()["hlr"]; st.Flushes != 1 || st.Fallthrough != 0 {
		t.Errorf("bulk-capable HLR: stats %+v, want one flush and no fallthrough", st)
	}
	if s.Whois != nil || s.DNSDB != nil || s.AVScan != nil || s.Shortener != nil {
		t.Error("WrapServices invented services that were nil")
	}
	s2 := m.WrapServices(core.Services{HLR: &perKeyOnlyHLR{}})
	if _, err := s2.HLR.Lookup(ctx, "+447700900123"); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats()["hlr"]; st.Flushes != 1 || st.Fallthrough != 1 {
		t.Errorf("per-key HLR: stats %+v, want one per-key fallthrough", st)
	}
}

// The real clients must keep satisfying the bulk seams the mux asserts on;
// a silent regression here would turn every study into fallthrough.
var (
	_ core.BulkHLRLookuper = (*hlr.Client)(nil)
	_ core.BulkDNSResolver = (*dnsdb.Client)(nil)
	_ core.BulkAVScanner   = (*avscan.Client)(nil)
)

func TestWriteRendersAllServices(t *testing.T) {
	t.Parallel()
	stats := Stats{
		"hlr":   {Flushes: 2, BatchedKeys: 10, Coalesced: 3},
		"dnsdb": {Fallthrough: 7},
	}
	var sb strings.Builder
	if err := Write(&sb, stats); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"request batching", "hlr", "dnsdb", "5.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	t.Parallel()
	c := Config{}.withDefaults()
	if c.Window != 32 || c.FlushInterval != 5*time.Millisecond {
		t.Errorf("withDefaults = %+v, want documented defaults", c)
	}
}
