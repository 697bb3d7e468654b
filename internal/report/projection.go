package report

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Projection incrementally maintains the report tables' input dataset from
// per-round batches, so a long-running daemon can keep every table current
// without re-collecting history. It indexes an append-only Source rather
// than copying records: each Submit indexes the records the source
// committed past the last apply, by list position, and takes the source's
// totals. A batch handed to Submit therefore only says "the source has
// grown"; a batch whose Submit failed is covered by the next apply.
// Submit applies in the caller's goroutine, so once it returns the batch
// is queryable; projection.batches counts the batches applied, and the
// projection.apply histogram times each apply, query-view indexing
// included.
type Projection struct {
	src  Source
	own  *memSource // the private list of a NewProjection, else nil
	view *QueryView

	// applyMu serializes Submit and Close; it alone guards closed, and
	// only its holder replaces ds.
	applyMu sync.Mutex
	closed  bool

	mu sync.Mutex
	// ds is the source's committed dataset as of the last apply; its
	// Records is the source's view, shared, never modified.
	ds      *core.Dataset
	batches int

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

// NewProjection returns a projection that owns its record list: each
// submitted batch is appended to the list before Submit indexes it. reg
// may be nil (metrics go to a private registry). The int argument is
// ignored; it stays so existing callers compile.
func NewProjection(reg *telemetry.Registry, _ int) *Projection {
	own := &memSource{ds: emptyDataset()}
	p := NewProjectionOver(reg, own)
	p.own = own
	return p
}

// NewProjectionOver returns a projection over records src owns: submitted
// batches are not copied, each Submit catches up with src instead. reg is
// as for NewProjection.
func NewProjectionOver(reg *telemetry.Registry, src Source) *Projection {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Projection{
		src:     src,
		ds:      emptyDataset(),
		view:    NewQueryView(),
		applied: reg.Counter("projection.batches"),
		apply:   reg.Histogram("projection.apply"),
	}
}

// Submit applies one round's processed batch before it returns (a
// projection over a Source only counts it: the apply reads the source).
// The time argument, when the batch's reports were collected, is not
// read. Submit fails on a dead ctx or after Close.
func (p *Projection) Submit(ctx context.Context, batch *core.Dataset, _ time.Time) error {
	if batch == nil {
		return nil
	}
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	if p.closed {
		return errors.New("report: projection closed")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	if p.own != nil {
		p.own.add(batch)
	}
	cur := p.src.Committed()
	// The query view has its own lock; feeding it outside p.mu keeps
	// Dataset and Stats readers from waiting on the indexing. It indexes
	// the records past its last apply in place.
	p.view.extend(cur.Records)
	p.mu.Lock()
	p.ds = cur
	p.batches++
	p.mu.Unlock()
	p.applied.Inc()
	p.apply.Observe(time.Since(start))
	return nil
}

// Wait returns nil at once: Submit applies before it returns, so nothing
// is ever left to wait for.
func (p *Projection) Wait(context.Context) error { return nil }

// Close makes every later Submit fail; it waits for an apply in progress.
// Idempotent.
func (p *Projection) Close() {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	p.closed = true
}

// Dataset returns the applied dataset as the source's view, the way
// Log.Committed does: Records is the source's own list, capped at its
// length as of the last apply, and the count maps are copies. The records
// are read-only: none is modified once committed, so the view stays valid
// while later batches apply, and the caller must not modify it either.
func (p *Projection) Dataset() *core.Dataset {
	p.mu.Lock()
	defer p.mu.Unlock()
	return cloneDataset(p.ds)
}

// ProjectionStats is a point-in-time reading of the projection.
type ProjectionStats struct {
	Batches int `json:"batches"` // batches applied so far
	Records int `json:"records"` // records in the applied dataset
	// BacklogSeconds is always 0: Submit applies before it returns. It
	// stays for callers that sample it.
	BacklogSeconds float64 `json:"backlog_seconds"`
}

// Stats returns current projection counters.
func (p *Projection) Stats() ProjectionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ProjectionStats{Batches: p.batches, Records: len(p.ds.Records)}
}

// Query returns the serving-side index Submit keeps current — what the
// /query/* endpoints answer from.
func (p *Projection) Query() *QueryView { return p.view }

// memSource is the record list a NewProjection owns. Only Submit, under
// the projection's applyMu, touches it.
type memSource struct {
	ds *core.Dataset
}

func (m *memSource) add(batch *core.Dataset) {
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
