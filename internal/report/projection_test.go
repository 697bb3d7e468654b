package report

import (
	"context"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/telemetry"
)

func batch(ids ...string) *core.Dataset {
	ds := &core.Dataset{
		PostsByForum:  map[corpus.Forum]int{corpus.ForumTwitter: len(ids)},
		ImagesByForum: map[corpus.Forum]int{},
		EmptyDropped:  1,
	}
	for _, id := range ids {
		ds.Records = append(ds.Records, core.Record{ID: id, Forum: corpus.ForumTwitter, Text: "msg " + id})
	}
	return ds
}

func TestProjectionMergesBatches(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewProjection(reg, 4)
	defer p.Close()
	ctx := context.Background()

	if err := p.Submit(ctx, batch("a", "b"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(ctx, batch("c"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	ds := p.Dataset()
	if len(ds.Records) != 3 {
		t.Fatalf("merged %d records, want 3", len(ds.Records))
	}
	if ds.PostsByForum[corpus.ForumTwitter] != 3 || ds.EmptyDropped != 2 {
		t.Fatalf("count maps not merged: %+v empty=%d", ds.PostsByForum, ds.EmptyDropped)
	}
	st := p.Stats()
	if st.Batches != 2 || st.Pending != 0 || st.Records != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BacklogSeconds != 0 {
		t.Fatalf("idle backlog = %v, want 0", st.BacklogSeconds)
	}
	if g := reg.Gauge("projection.backlog_seconds").Value(); g != 0 {
		t.Fatalf("backlog gauge = %d, want 0", g)
	}
	if c := reg.Counter("projection.batches").Value(); c != 2 {
		t.Fatalf("batches counter = %d, want 2", c)
	}
	if n := reg.Histogram("projection.apply").Stats().Count; n != 2 {
		t.Fatalf("projection.apply observations = %d, want one per merged batch (2)", n)
	}

	// Snapshots are isolated from the live dataset.
	ds.Records[0].ID = "mutated"
	if p.Dataset().Records[0].ID != "a" {
		t.Fatal("Dataset returned an aliased snapshot")
	}
}

func TestProjectionCloseRejectsSubmit(t *testing.T) {
	p := NewProjection(nil, 2)
	if err := p.Submit(context.Background(), batch("x"), time.Now()); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if err := p.Submit(context.Background(), batch("y"), time.Now()); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
	// The pre-close batch still made it in.
	if n := len(p.Dataset().Records); n != 1 {
		t.Fatalf("post-close dataset has %d records, want 1", n)
	}
}
