package report

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/recordlog"
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

	ds := p.Dataset()
	if len(ds.Records) != 3 {
		t.Fatalf("merged %d records, want 3", len(ds.Records))
	}
	if ds.PostsByForum[corpus.ForumTwitter] != 3 || ds.EmptyDropped != 2 {
		t.Fatalf("count maps not merged: %+v empty=%d", ds.PostsByForum, ds.EmptyDropped)
	}
	st := p.Stats()
	if st.Batches != 2 || st.Records != 3 || st.BacklogSeconds != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if c := reg.Counter("projection.batches").Value(); c != 2 {
		t.Fatalf("batches counter = %d, want 2", c)
	}
	if n := reg.Histogram("projection.apply").Stats().Count; n != 2 {
		t.Fatalf("projection.apply observations = %d, want one per applied batch (2)", n)
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

// allocBytes reports the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestProjectionMergeCopiesNoRecords pins the single in-memory copy: a
// projection over a list it does not own indexes a submitted batch in
// place, so the apply allocates what QueryView.Add of the batch allocates
// and little else. Copying the batch's records would add ~920 KB.
func TestProjectionMergeCopiesNoRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 1000
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%04d", i)
	}
	b := batch(ids...)
	for i := range b.Records {
		b.Records[i].Domain = fmt.Sprintf("d%d.example", i%40)
		b.Records[i].SenderRaw = fmt.Sprintf("+1555%07d", i%60)
	}

	shared := &memSource{ds: emptyDataset()}
	shared.add(b)
	p := NewProjectionOver(nil, shared)
	defer p.Close()
	merged := allocBytes(func() {
		if err := p.Submit(context.Background(), b, time.Now()); err != nil {
			t.Fatal(err)
		}
	})
	indexed := allocBytes(func() { NewQueryView().Add(b.Records) })
	if merged > indexed+64<<10 {
		t.Fatalf("applying %d records allocated %d B, QueryView.Add alone %d B: the apply copies records", n, merged, indexed)
	}
	if st := p.Stats(); st.Records != n {
		t.Fatalf("projection holds %d records, want %d", st.Records, n)
	}
}

// TestProjectionSubmitAppliesBeforeReturn pins the inline apply: the
// moment Submit returns, the projection's stats and its query view hold
// the whole batch, with no wait in between.
func TestProjectionSubmitAppliesBeforeReturn(t *testing.T) {
	const n = 2000
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%05d", i)
	}
	src := &memSource{ds: emptyDataset()}
	b := batch(ids...)
	src.add(b)
	p := NewProjectionOver(nil, src)
	defer p.Close()
	if err := p.Submit(context.Background(), b, time.Now()); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Records; got != n {
		t.Fatalf("Stats().Records = %d right after Submit, want %d", got, n)
	}
	if got := p.Query().Summarize(0).Records; got != n {
		t.Fatalf("summary total = %d right after Submit, want %d", got, n)
	}
}

// TestProjectionConvergesAfterFailedSubmit is the regression test for a
// projection over the record log: when a round's Submit fails after its
// Append, the round does not commit, and the next round's re-collected
// records are deduplicated by the log, so the projection never sees them
// as a batch. Indexing the log's records by position still takes them in,
// and the summary total meets the durable count.
func TestProjectionConvergesAfterFailedSubmit(t *testing.T) {
	l, err := recordlog.Open(recordlog.Config{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p := NewProjectionOver(nil, l)
	defer p.Close()
	ctx := context.Background()
	at := time.Now()
	round := func(sctx context.Context, ids ...string) error {
		fresh, err := l.Append(batch(ids...), at)
		if err != nil {
			t.Fatal(err)
		}
		return p.Submit(sctx, fresh, at)
	}

	if err := round(ctx, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := round(ctx, "c", "d"); err != nil {
		t.Fatal(err)
	}
	// The round's context died: its Submit fails after its Append.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if err := round(dead, "e", "f"); err == nil {
		t.Fatal("Submit with a dead context succeeded")
	}
	if got := p.Stats().Records; got != 4 {
		t.Fatalf("projection holds %d records after the failed Submit, want 4", got)
	}
	// The next round re-collects e and f (the log drops them) plus g.
	if err := round(ctx, "e", "f", "g"); err != nil {
		t.Fatal(err)
	}

	durable := l.Stats().Records
	if durable != 7 {
		t.Fatalf("log holds %d records, want 7", durable)
	}
	if got := p.Query().Summarize(0).Records; got != durable {
		t.Fatalf("summary total = %d, durable count = %d", got, durable)
	}
	assertSameDataset(t, p.Dataset(), l.Dataset())
}

// assertSameDataset fails unless got and want encode to the same JSON,
// records and totals alike.
func assertSameDataset(t *testing.T, got, want *core.Dataset) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("projection dataset diverges from the log:\n got: %s\nwant: %s", g, w)
	}
}
