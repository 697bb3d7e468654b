package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/smishkit/smishkit/internal/batchmux"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Multi-process mode: each shard runs as a separate OS process hosting a
// Worker — its own process tiers (faults, batchmux) and one Stack (cache,
// breakers, pipeline) over HTTP clients dialed at the parent's simulated
// services — and the parent's Group routes record slices to it over
// localhost as JSON. core.Record round-trips JSON losslessly (the record
// log depends on the same property), so a remote shard's merged output is
// byte-identical to a local one's.

// WorkerSpec is everything a shard worker process needs to build its
// stack: where the upstream services are, and the same StackConfig an
// in-process shard is built from. It is the JSON document the parent
// writes to the worker's stdin.
type WorkerSpec struct {
	// Index is the shard's position on the parent's ring; the worker's
	// telemetry records under "shard.<Index>.*".
	Index     int            `json:"index"`
	Upstreams core.Endpoints `json:"upstreams"`
	Stack     StackConfig    `json:"stack"`
}

// DefaultMaxEnrichBytes caps one POST /enrich request body; larger bodies
// are rejected with 413 before decoding. It is sized for the largest
// routed subset a parent sends in practice (thousands of records at a few
// KiB of JSON each) with an order of magnitude of headroom.
const DefaultMaxEnrichBytes int64 = 32 << 20

// defaultDrainTimeout bounds Worker.Serve's graceful shutdown: in-flight
// /enrich responses get this long to finish before the listener is closed
// hard.
const defaultDrainTimeout = 5 * time.Second

// enrichEnvelope frames a routed record slice on the wire, both ways.
type enrichEnvelope struct {
	Records []core.Record `json:"records"`
}

// Worker hosts one shard's stack in its own process, behind a localhost
// HTTP surface:
//
//	POST /enrich          routed records in, enriched records out (JSON)
//	GET  /healthz         readiness probe
//	GET  /stats           StackStats snapshot
//	GET  /debug/telemetry the worker's registry snapshot
type Worker struct {
	stack   workerBackend
	batch   *batchmux.Mux // the worker process's batching tier; nil without one
	reg     *telemetry.Registry
	maxBody int64
	drain   time.Duration
}

// workerBackend is what the worker's HTTP surface needs from its stack —
// an interface so tests can substitute slow or failing backends without
// building a full tier set.
type workerBackend interface {
	Enricher
	StatsProvider
}

// NewWorker builds a worker from its spec: clients dialed at the spec's
// upstreams, under the tiers the spec's StackConfig describes. The worker
// is a process with one shard stack, so NewStacks builds it as it builds
// an in-process study's: the process tiers record on the worker's root
// registry ("fault.*", "batch.*") and the shard tiers under
// "shard.<Index>.*".
func NewWorker(spec WorkerSpec) (*Worker, error) {
	if spec.Index < 0 {
		return nil, fmt.Errorf("shard: worker index must not be negative (got %d)", spec.Index)
	}
	if err := spec.Upstreams.Validate(); err != nil {
		return nil, fmt.Errorf("shard: worker spec: %w", err)
	}
	reg := telemetry.NewRegistry()
	stacks, batch, err := NewStacks(spec.Upstreams.Services(reg), spec.Stack, reg,
		[]*telemetry.Registry{reg.Prefixed("shard." + strconv.Itoa(spec.Index) + ".")})
	if err != nil {
		return nil, err
	}
	return &Worker{stack: stacks[0], batch: batch, reg: reg, maxBody: DefaultMaxEnrichBytes, drain: defaultDrainTimeout}, nil
}

// Stack returns the shard stack the worker serves (nil for a worker over
// a substitute backend).
func (wk *Worker) Stack() *Stack {
	st, _ := wk.stack.(*Stack)
	return st
}

// Serve runs the worker on an ephemeral loopback listener, reports the
// base URL via onReady, and blocks until ctx is cancelled.
func (wk *Worker) Serve(ctx context.Context, onReady func(url string)) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("shard: bind worker listener: %w", err)
	}
	srv := &http.Server{Handler: wk.Handler(), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	if onReady != nil {
		onReady("http://" + ln.Addr().String())
	}
	select {
	case <-ctx.Done():
		// Graceful teardown: stop accepting, let in-flight /enrich responses
		// finish writing their bodies (a SIGTERM mid-round must not hand the
		// parent a truncated JSON stream), and only slam the door when the
		// drain deadline expires.
		sdCtx, cancel := context.WithTimeout(context.Background(), wk.drain)
		defer cancel()
		if err := srv.Shutdown(sdCtx); err != nil {
			_ = srv.Close()
		}
		<-done
		return nil
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// Handler returns the worker's HTTP surface.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /enrich", func(w http.ResponseWriter, r *http.Request) {
		// Bound the decode: an unbounded body would let one oversized (or
		// malicious, once workers are reachable off-box) request balloon the
		// worker's heap before JSON parsing even fails.
		r.Body = http.MaxBytesReader(w, r.Body, wk.maxBody)
		var in enrichEnvelope
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeWorkerError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeWorkerError(w, http.StatusBadRequest, fmt.Errorf("decode records: %w", err))
			return
		}
		out, err := wk.stack.EnrichAnnotate(r.Context(), in.Records)
		if err != nil {
			writeWorkerError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(enrichEnvelope{Records: out})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		st, _ := wk.stack.Stats()
		if wk.batch != nil {
			st.Batch = wk.batch.Stats()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.Handle("GET /debug/telemetry", telemetry.Handler(wk.reg))
	return mux
}

func writeWorkerError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// RunWorker is the whole worker process: decode a WorkerSpec from r
// (stdin), serve on an ephemeral loopback port, print the base URL as one
// line to w (stdout — the parent reads it), and block until ctx ends.
func RunWorker(ctx context.Context, r io.Reader, w io.Writer) error {
	var spec WorkerSpec
	if err := json.NewDecoder(r).Decode(&spec); err != nil {
		return fmt.Errorf("shard: decode worker spec: %w", err)
	}
	wk, err := NewWorker(spec)
	if err != nil {
		return err
	}
	return wk.Serve(ctx, func(url string) { fmt.Fprintln(w, url) })
}

// DefaultWorkerTimeout bounds one remote /enrich request when the caller
// does not say. It exists so a hung worker can never stall Group.Run
// forever when the round context itself has no deadline (batch-mode Run
// with context.Background was exactly that trap); it is generous because
// a cold cache plus a large routed subset legitimately takes a while.
const DefaultWorkerTimeout = 2 * time.Minute

// remoteRetryDelay separates the two connection attempts.
const remoteRetryDelay = 100 * time.Millisecond

// RemoteEnricher is the Group-side client for one worker process.
type RemoteEnricher struct {
	base    string
	hc      *http.Client
	timeout time.Duration
}

// NewRemoteEnricher returns a client for the worker at baseURL (as printed
// by RunWorker), with DefaultWorkerTimeout per request.
func NewRemoteEnricher(baseURL string) *RemoteEnricher {
	return &RemoteEnricher{base: baseURL, hc: &http.Client{}, timeout: DefaultWorkerTimeout}
}

// WithTimeout sets the per-request deadline (0 restores the default) and
// returns the enricher for chaining.
func (re *RemoteEnricher) WithTimeout(d time.Duration) *RemoteEnricher {
	if d <= 0 {
		d = DefaultWorkerTimeout
	}
	re.timeout = d
	return re
}

// reqCtx derives the per-attempt request context: the caller's ctx capped
// by the client's own timeout, so a hung worker fails the attempt even
// when the round context has no deadline.
func (re *RemoteEnricher) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, re.timeout)
}

// Healthy probes the worker's readiness endpoint.
func (re *RemoteEnricher) Healthy(ctx context.Context) error {
	rctx, cancel := re.reqCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, re.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := re.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: worker %s health: %s", re.base, resp.Status)
	}
	return nil
}

// EnrichAnnotate ships the routed slice to the worker and returns its
// enriched output. Each attempt is bounded by the client timeout, and a
// connection-level failure (dial refused, reset, per-attempt deadline —
// anything where no HTTP status came back) is retried once: enrichment is
// key-deterministic and the worker handler has no side effects beyond its
// own caches, so replaying the request is safe. HTTP-level errors are
// never retried — the worker answered, and its answer is authoritative.
func (re *RemoteEnricher) EnrichAnnotate(ctx context.Context, recs []core.Record) ([]core.Record, error) {
	body, err := json.Marshal(enrichEnvelope{Records: recs})
	if err != nil {
		return nil, err
	}
	const attempts = 2
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, lastErr
			case <-time.After(remoteRetryDelay):
			}
		}
		out, err := re.enrichOnce(ctx, body)
		if err == nil {
			return out, nil
		}
		lastErr = err
		var connErr *connectionError
		if !errors.As(err, &connErr) || ctx.Err() != nil {
			// The worker answered (status error, decode error) or the round
			// itself is over — retrying cannot help.
			return nil, err
		}
	}
	return nil, fmt.Errorf("shard: worker %s unreachable after %d attempts: %w", re.base, attempts, lastErr)
}

// connectionError wraps transport-level failures so the retry loop can
// tell them apart from worker-reported errors.
type connectionError struct{ err error }

func (e *connectionError) Error() string { return e.err.Error() }
func (e *connectionError) Unwrap() error { return e.err }

// enrichOnce performs one /enrich round trip.
func (re *RemoteEnricher) enrichOnce(ctx context.Context, body []byte) ([]core.Record, error) {
	rctx, cancel := re.reqCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, re.base+"/enrich", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := re.hc.Do(req)
	if err != nil {
		return nil, &connectionError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var werr struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&werr)
		if werr.Error == "" {
			werr.Error = resp.Status
		}
		return nil, fmt.Errorf("shard: worker %s enrich: %s", re.base, werr.Error)
	}
	var out enrichEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("shard: decode worker %s response: %w", re.base, err)
	}
	return out.Records, nil
}

// Stats fetches the worker's tier scoreboard; ok is false when the worker
// is unreachable.
func (re *RemoteEnricher) Stats() (StackStats, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, re.base+"/stats", nil)
	if err != nil {
		return StackStats{}, false
	}
	resp, err := re.hc.Do(req)
	if err != nil {
		return StackStats{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return StackStats{}, false
	}
	var st StackStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return StackStats{}, false
	}
	return st, true
}

var _ Enricher = (*RemoteEnricher)(nil)
var _ StatsProvider = (*RemoteEnricher)(nil)
