package report

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Projection incrementally maintains the report tables' input dataset from
// per-round batches, so a long-running daemon can keep every table current
// without re-collecting history. Batches are merged by a single background
// worker; the projection.backlog_seconds gauge exports the age of the
// oldest batch still waiting to be folded in (0 when the projection is
// caught up), projection.batches counts the batches applied, and the
// projection.apply histogram times each merge, query-view indexing
// included.
type Projection struct {
	queue chan projBatch
	done  chan struct{}
	wg    sync.WaitGroup

	mu      sync.Mutex
	ds      *core.Dataset
	view    *QueryView
	pending []time.Time // collectedAt of submitted-but-unmerged batches
	batches int
	closed  bool

	backlog *telemetry.Gauge
	applied *telemetry.Counter
	apply   *telemetry.Histogram
}

type projBatch struct {
	ds          *core.Dataset
	collectedAt time.Time
}

// NewProjection starts the merge worker. reg may be nil (metrics go to a
// private registry); queue <= 0 selects a default depth of 16.
func NewProjection(reg *telemetry.Registry, queue int) *Projection {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if queue <= 0 {
		queue = 16
	}
	p := &Projection{
		queue: make(chan projBatch, queue),
		done:  make(chan struct{}),
		ds: &core.Dataset{
			PostsByForum:  make(map[corpus.Forum]int, len(corpus.Forums)),
			ImagesByForum: make(map[corpus.Forum]int, len(corpus.Forums)),
		},
		view:    NewQueryView(),
		backlog: reg.Gauge("projection.backlog_seconds"),
		applied: reg.Counter("projection.batches"),
		apply:   reg.Histogram("projection.apply"),
	}
	p.wg.Add(1)
	go p.run()
	return p
}

func (p *Projection) run() {
	defer p.wg.Done()
	for batch := range p.queue {
		p.merge(batch.ds)
	}
	close(p.done)
}

func (p *Projection) merge(batch *core.Dataset) {
	start := time.Now()
	// The query view has its own lock; feeding it outside p.mu keeps the
	// two independent (Query readers never contend with Dataset readers).
	p.view.Add(batch.Records)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ds.Records = append(p.ds.Records, batch.Records...)
	for f, n := range batch.PostsByForum {
		p.ds.PostsByForum[f] += n
	}
	for f, n := range batch.ImagesByForum {
		p.ds.ImagesByForum[f] += n
	}
	p.ds.DecoysRejected += batch.DecoysRejected
	p.ds.EmptyDropped += batch.EmptyDropped
	p.batches++
	p.applied.Inc()
	// The worker merges in submit order, so the oldest pending batch is
	// always the head of the list.
	if len(p.pending) > 0 {
		p.pending = p.pending[1:]
	}
	p.setBacklogLocked()
	p.apply.Observe(time.Since(start))
}

// setBacklogLocked refreshes the backlog gauge from the pending list.
func (p *Projection) setBacklogLocked() {
	if len(p.pending) == 0 {
		p.backlog.Set(0)
		return
	}
	age := time.Since(p.pending[0])
	if age < 0 {
		age = 0
	}
	p.backlog.Set(int64(age / time.Second))
}

// Submit queues one round's processed batch for merging. collectedAt is
// when the batch's reports were collected — the timestamp the backlog
// gauge ages against. Submit blocks while the queue is full and fails on
// ctx death or after Close.
func (p *Projection) Submit(ctx context.Context, batch *core.Dataset, collectedAt time.Time) error {
	if batch == nil {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("report: projection closed")
	}
	p.pending = append(p.pending, collectedAt)
	p.setBacklogLocked()
	p.mu.Unlock()
	select {
	case p.queue <- projBatch{ds: batch, collectedAt: collectedAt}:
		return nil
	case <-ctx.Done():
		// The batch never entered the queue; drop its pending entry (it is
		// the newest, so it sits at the tail).
		p.mu.Lock()
		if n := len(p.pending); n > 0 {
			p.pending = p.pending[:n-1]
		}
		p.setBacklogLocked()
		p.mu.Unlock()
		return ctx.Err()
	}
}

// Wait blocks until every submitted batch has been merged (or ctx dies).
func (p *Projection) Wait(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		p.mu.Lock()
		idle := len(p.pending) == 0
		p.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close drains the queue, stops the worker, and waits for it. Idempotent.
func (p *Projection) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.queue)
	p.wg.Wait()
}

// Dataset returns a snapshot of the merged dataset: the record slice and
// count maps are copied, so the caller can render while the worker keeps
// merging.
func (p *Projection) Dataset() *core.Dataset {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := &core.Dataset{
		Records:        make([]core.Record, len(p.ds.Records)),
		PostsByForum:   make(map[corpus.Forum]int, len(p.ds.PostsByForum)),
		ImagesByForum:  make(map[corpus.Forum]int, len(p.ds.ImagesByForum)),
		DecoysRejected: p.ds.DecoysRejected,
		EmptyDropped:   p.ds.EmptyDropped,
	}
	copy(out.Records, p.ds.Records)
	for f, n := range p.ds.PostsByForum {
		out.PostsByForum[f] = n
	}
	for f, n := range p.ds.ImagesByForum {
		out.ImagesByForum[f] = n
	}
	return out
}

// ProjectionStats is a point-in-time reading of the projection.
type ProjectionStats struct {
	Batches        int     `json:"batches"`         // batches merged so far
	Pending        int     `json:"pending"`         // batches submitted but not yet merged
	Records        int     `json:"records"`         // records in the merged dataset
	BacklogSeconds float64 `json:"backlog_seconds"` // age of the oldest pending batch
}

// Stats returns current projection counters.
func (p *Projection) Stats() ProjectionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := ProjectionStats{
		Batches: p.batches,
		Pending: len(p.pending),
		Records: len(p.ds.Records),
	}
	if len(p.pending) > 0 {
		st.BacklogSeconds = time.Since(p.pending[0]).Seconds()
	}
	return st
}

// Query returns the serving-side index the merge worker keeps current —
// what the /query/* endpoints answer from.
func (p *Projection) Query() *QueryView { return p.view }

// Render writes every table and figure from the current snapshot.
func (p *Projection) Render(w io.Writer) error {
	return RenderAll(w, p.Dataset())
}
