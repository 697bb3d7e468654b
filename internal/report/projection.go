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
// without re-collecting history. It indexes an append-only Source rather
// than copying records: each merge indexes the records the source
// committed past the last merge, by list position, and takes the source's
// totals. A batch handed to Submit therefore only says "the source has
// grown"; a batch whose Submit failed is covered by the next merge.
// Batches are merged by a single background worker; the
// projection.backlog_seconds gauge exports the age of the oldest batch
// still waiting to be folded in (0 when the projection is caught up),
// projection.batches counts the batches applied, and the projection.apply
// histogram times each merge, query-view indexing included.
type Projection struct {
	queue chan projBatch
	done  chan struct{}
	wg    sync.WaitGroup

	src Source
	own *memSource // the private list of a NewProjection, else nil

	mu sync.Mutex
	// ds is the source's committed dataset as of the last merge; its
	// Records is the source's view, shared, never modified.
	ds      *core.Dataset
	view    *QueryView
	pending []time.Time // collectedAt of submitted-but-unmerged batches
	batches int
	closed  bool

	backlog *telemetry.Gauge
	applied *telemetry.Counter
	apply   *telemetry.Histogram
}

// Source is the append-only dataset a projection indexes. Committed
// returns every record committed so far, in commit order, with the
// curation totals after them. Its Records is a view the projection keeps
// without copying: the source only ever appends past a returned view's
// end and never modifies a committed record. recordlog.Log is the
// daemon's source.
type Source interface {
	Committed() *core.Dataset
}

type projBatch struct {
	ds          *core.Dataset
	collectedAt time.Time
}

// NewProjection starts a projection that owns its record list: each
// submitted batch is appended to the list before the merge indexes it.
// reg may be nil (metrics go to a private registry); queue <= 0 selects a
// default depth of 16.
func NewProjection(reg *telemetry.Registry, queue int) *Projection {
	own := &memSource{ds: emptyDataset()}
	p := NewProjectionOver(reg, queue, own)
	p.own = own
	return p
}

// NewProjectionOver starts a projection over records src owns: submitted
// batches are not copied, each merge catches up with src instead. reg and
// queue are as for NewProjection.
func NewProjectionOver(reg *telemetry.Registry, queue int, src Source) *Projection {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if queue <= 0 {
		queue = 16
	}
	p := &Projection{
		queue:   make(chan projBatch, queue),
		done:    make(chan struct{}),
		src:     src,
		ds:      emptyDataset(),
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
	if p.own != nil {
		p.own.add(batch)
	}
	cur := p.src.Committed()
	// Only this worker replaces p.ds, so it reads p.ds without the lock.
	// The query view has its own lock; feeding it outside p.mu keeps the
	// two independent (Query readers never contend with Dataset readers).
	p.view.Add(cur.Records[len(p.ds.Records):])
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ds = cur
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

// Submit queues one round's processed batch for merging (a projection over
// a Source only counts it: the merge reads the source). collectedAt is
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
// count maps are copied, so the caller can render or modify it while the
// worker keeps merging.
func (p *Projection) Dataset() *core.Dataset {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := cloneDataset(p.ds)
	out.Records = append(make([]core.Record, 0, len(out.Records)), out.Records...)
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

// memSource is the record list a NewProjection owns.
type memSource struct {
	mu sync.Mutex
	ds *core.Dataset
}

func (m *memSource) add(batch *core.Dataset) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ds.Records = append(m.ds.Records, batch.Records...)
	for f, n := range batch.PostsByForum {
		m.ds.PostsByForum[f] += n
	}
	for f, n := range batch.ImagesByForum {
		m.ds.ImagesByForum[f] += n
	}
	m.ds.DecoysRejected += batch.DecoysRejected
	m.ds.EmptyDropped += batch.EmptyDropped
}

func (m *memSource) Committed() *core.Dataset {
	m.mu.Lock()
	defer m.mu.Unlock()
	return cloneDataset(m.ds)
}

func emptyDataset() *core.Dataset {
	return &core.Dataset{
		PostsByForum:  make(map[corpus.Forum]int, len(corpus.Forums)),
		ImagesByForum: make(map[corpus.Forum]int, len(corpus.Forums)),
	}
}

// cloneDataset copies ds's count maps and takes a view of its records,
// capped at their current length so later appends to ds never show
// through it.
func cloneDataset(ds *core.Dataset) *core.Dataset {
	out := emptyDataset()
	n := len(ds.Records)
	out.Records = ds.Records[:n:n]
	for f, c := range ds.PostsByForum {
		out.PostsByForum[f] = c
	}
	for f, c := range ds.ImagesByForum {
		out.ImagesByForum[f] = c
	}
	out.DecoysRejected = ds.DecoysRejected
	out.EmptyDropped = ds.EmptyDropped
	return out
}
