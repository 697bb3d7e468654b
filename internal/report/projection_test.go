package report

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

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

	// Dataset is a view of the projection's list: it shares the records
	// and a later apply neither grows it nor changes its totals.
	if &p.Dataset().Records[0] != &ds.Records[0] {
		t.Fatal("Dataset copied the records")
	}
	if err := p.Submit(ctx, batch("d"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) != 3 || cap(ds.Records) != 3 || ds.PostsByForum[corpus.ForumTwitter] != 3 {
		t.Fatalf("earlier view changed after an apply: len/cap %d/%d, totals %v",
			len(ds.Records), cap(ds.Records), ds.PostsByForum)
	}
	if n := len(p.Dataset().Records); n != 4 {
		t.Fatalf("dataset after the third apply has %d records, want 4", n)
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
// place, so the apply allocates what indexing the batch in place
// allocates and little else. Copying the batch's records would add
// ~920 KB.
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
	indexed := allocBytes(func() { NewQueryView().extend(b.Records) })
	if merged > indexed+64<<10 {
		t.Fatalf("applying %d records allocated %d B, indexing them alone %d B: the apply copies records", n, merged, indexed)
	}
	if st := p.Stats(); st.Records != n {
		t.Fatalf("projection holds %d records, want %d", st.Records, n)
	}
}

// TestQueryViewIndexesNoRows pins the positional index: indexing a
// 1,000-record batch in place allocates less than half a serving row per
// record, so the view keeps no per-record row: a queryRec per record
// would alone cost 168 B a record.
func TestQueryViewIndexesNoRows(t *testing.T) {
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
		b.Records[i].Domain = fmt.Sprintf("D%d.example", i%40) // lowered on the way in
		b.Records[i].SenderRaw = fmt.Sprintf("+1555%07d", i%60)
		if i%10 == 0 {
			b.Records[i].Domain, b.Records[i].SenderRaw = "", "" // keyless
		}
	}
	v := NewQueryView()
	got := allocBytes(func() { v.extend(b.Records) })
	if budget := uint64(n) * uint64(unsafe.Sizeof(queryRec{})) / 2; got > budget {
		t.Fatalf("indexing %d records allocated %d B (%d B a record), budget %d B: the view keeps a row per record",
			n, got, got/n, budget)
	}
	if &v.recs[0] != &b.Records[0] {
		t.Fatal("the view copied the records it indexes")
	}
	if s := v.Summarize(1); s.Records != n {
		t.Fatalf("summary total = %d, want %d", s.Records, n)
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
	assertSameDataset(t, p.Dataset(), l.Committed())
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
