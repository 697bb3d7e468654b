package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// stubBackend is a worker backend the tests control: it can block until
// released (drain tests) and tags records so output is recognizable.
type stubBackend struct {
	started chan struct{} // closed when the first call begins (may be nil)
	release chan struct{} // blocks the call until closed (may be nil)
	once    sync.Once
}

func (s *stubBackend) EnrichAnnotate(ctx context.Context, recs []core.Record) ([]core.Record, error) {
	if s.started != nil {
		s.once.Do(func() { close(s.started) })
	}
	if s.release != nil {
		select {
		case <-s.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := make([]core.Record, len(recs))
	for i, r := range recs {
		r.GSBStatus = "stub-enriched"
		out[i] = r
	}
	return out, nil
}

func (s *stubBackend) Stats() (StackStats, bool) { return StackStats{Enriched: 1}, true }

func testRecords(n int) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{ID: fmt.Sprintf("wrk-%03d", i)}
	}
	return recs
}

func TestRemoteEnricherTimesOutOnHungWorker(t *testing.T) {
	// The worker accepts the connection and never answers — the regression
	// this guards against is the zero-value http.Client waiting forever
	// when the round context has no deadline.
	stop := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hang until the test ends (the close(stop) defer runs before
		// srv.Close, so Close never waits on this handler).
		select {
		case <-stop:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(stop)

	re := NewRemoteEnricher(srv.URL).WithTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err := re.EnrichAnnotate(context.Background(), testRecords(3))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("EnrichAnnotate succeeded against a never-responding worker")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("error %q does not report the bounded retry", err)
	}
	// Two 50ms attempts plus the retry delay: well under a second. The old
	// client would have hung until the test timeout.
	if elapsed > 5*time.Second {
		t.Errorf("EnrichAnnotate took %v, want bounded by the per-request timeout", elapsed)
	}
}

func TestRemoteEnricherRetriesConnectionErrorOnce(t *testing.T) {
	// First request: the server slams the connection before any response —
	// a transport-level failure. Second request: a normal answer. The
	// client must absorb exactly one such failure.
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		var in enrichEnvelope
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			t.Errorf("decode: %v", err)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(enrichEnvelope{Records: in.Records})
	}))
	defer srv.Close()

	re := NewRemoteEnricher(srv.URL).WithTimeout(5 * time.Second)
	out, err := re.EnrichAnnotate(context.Background(), testRecords(4))
	if err != nil {
		t.Fatalf("EnrichAnnotate did not recover from one connection failure: %v", err)
	}
	if len(out) != 4 || out[0].ID != "wrk-000" {
		t.Errorf("retried response returned %d records (first %q), want the 4 sent", len(out), out[0].ID)
	}
	if got := atomic.LoadInt32(&calls); got != 2 {
		t.Errorf("worker saw %d requests, want 2 (one failed, one retried)", got)
	}
}

func TestRemoteEnricherDoesNotRetryWorkerErrors(t *testing.T) {
	// An HTTP-level error is an authoritative worker answer: no retry.
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		writeWorkerError(w, http.StatusInternalServerError, fmt.Errorf("enrich blew up"))
	}))
	defer srv.Close()

	re := NewRemoteEnricher(srv.URL)
	_, err := re.EnrichAnnotate(context.Background(), testRecords(2))
	if err == nil {
		t.Fatal("EnrichAnnotate swallowed a worker error")
	}
	if !strings.Contains(err.Error(), "enrich blew up") {
		t.Errorf("error %q does not carry the worker's message", err)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Errorf("worker saw %d requests, want 1 (no retry on HTTP errors)", got)
	}
}

func TestWorkerRejectsOversizedBody(t *testing.T) {
	// The cap sits just above a one-record envelope, so one record passes
	// and two hundred are rejected.
	small, err := json.Marshal(enrichEnvelope{Records: testRecords(1)})
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(len(small) + 64)
	wk := &Worker{stack: &stubBackend{}, reg: telemetry.NewRegistry(), maxBody: limit, drain: time.Second}
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()

	big, err := json.Marshal(enrichEnvelope{Records: testRecords(200)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/enrich", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body got %d, want 413", resp.StatusCode)
	}
	var werr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&werr); err != nil {
		t.Fatalf("413 response is not the standard error envelope: %v", err)
	}
	if !strings.Contains(werr.Error, fmt.Sprint(limit)) {
		t.Errorf("413 error %q does not name the limit %d", werr.Error, limit)
	}

	// A body under the cap still works.
	resp2, err := http.Post(srv.URL+"/enrich", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("small body got %d, want 200", resp2.StatusCode)
	}
}

func TestWorkerServeDrainsInFlightRequests(t *testing.T) {
	// A SIGTERM (ctx cancel) mid-request must not hand the parent a
	// truncated response: Serve switches to graceful shutdown and the
	// in-flight /enrich completes.
	started := make(chan struct{})
	release := make(chan struct{})
	wk := &Worker{
		stack:   &stubBackend{started: started, release: release},
		reg:     telemetry.NewRegistry(),
		maxBody: DefaultMaxEnrichBytes,
		drain:   5 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	urlCh := make(chan string, 1)
	serveDone := make(chan error, 1)
	go func() { serveDone <- wk.Serve(ctx, func(u string) { urlCh <- u }) }()
	base := <-urlCh

	body, _ := json.Marshal(enrichEnvelope{Records: testRecords(5)})
	type result struct {
		code int
		recs int
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/enrich", "application/json", bytes.NewReader(body))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var out enrichEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&out)
		resCh <- result{code: resp.StatusCode, recs: len(out.Records), err: derr}
	}()

	<-started // request is in the backend
	cancel()  // SIGTERM arrives mid-request
	time.Sleep(20 * time.Millisecond)
	close(release) // backend finishes after shutdown began

	select {
	case res := <-resCh:
		if res.err != nil {
			t.Fatalf("in-flight request aborted by shutdown: %v", res.err)
		}
		if res.code != http.StatusOK || res.recs != 5 {
			t.Fatalf("in-flight request got status %d with %d records, want 200 with 5", res.code, res.recs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after ctx cancel")
	}
}

func TestNewWorkerAppliesSpecDefaults(t *testing.T) {
	if _, err := NewWorker(WorkerSpec{}); err == nil {
		t.Error("NewWorker accepted a spec without upstream URLs")
	}
	ep := core.Endpoint{URL: "http://127.0.0.1:1"}
	wk, err := NewWorker(WorkerSpec{Upstreams: core.Endpoints{HLR: ep, Whois: ep, CTLog: ep, DNSDB: ep, AVScan: ep, Shortener: ep}})
	if err != nil {
		t.Fatal(err)
	}
	if wk.maxBody != DefaultMaxEnrichBytes {
		t.Errorf("maxBody = %d, want DefaultMaxEnrichBytes", wk.maxBody)
	}
	if wk.drain != defaultDrainTimeout {
		t.Errorf("drain = %v, want %v", wk.drain, defaultDrainTimeout)
	}
}

// FuzzWorkerEnrich feeds arbitrary bodies to POST /enrich. Whatever the
// bytes, the handler must not panic, must answer 200, 400 or 413, and a
// 200 must carry back exactly as many records as the body held. Malformed
// and oversized seeds live in testdata/fuzz/FuzzWorkerEnrich.
func FuzzWorkerEnrich(f *testing.F) {
	for _, n := range []int{0, 1, 3} {
		body, err := json.Marshal(enrichEnvelope{Records: testRecords(n)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	const limit = 1 << 10
	wk := &Worker{stack: &stubBackend{}, reg: telemetry.NewRegistry(), maxBody: limit, drain: time.Second}
	h := wk.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/enrich", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var in, out enrichEnvelope
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&in); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 reply does not decode: %v", err)
			}
			if len(out.Records) != len(in.Records) {
				t.Fatalf("sent %d records, got %d back", len(in.Records), len(out.Records))
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d (%s)", rec.Code, rec.Body.String())
		}
	})
}
