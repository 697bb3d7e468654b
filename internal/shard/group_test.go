package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/enrichcache"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// markEnricher tags each record it sees so the test can tell which shard
// processed it — and checks the affinity invariant: every record a shard
// receives in one batch must share the shard per the group's ring.
type markEnricher struct {
	index int
	fail  error

	mu   sync.Mutex
	seen int
}

func (m *markEnricher) EnrichAnnotate(_ context.Context, recs []core.Record) ([]core.Record, error) {
	if m.fail != nil {
		return nil, m.fail
	}
	m.mu.Lock()
	m.seen += len(recs)
	m.mu.Unlock()
	out := make([]core.Record, len(recs))
	for i, r := range recs {
		r.GSBStatus = fmt.Sprintf("shard-%d", m.index)
		out[i] = r
	}
	return out, nil
}

// shortEnricher drops a record — the length mismatch the group must catch.
type shortEnricher struct{}

func (shortEnricher) EnrichAnnotate(_ context.Context, recs []core.Record) ([]core.Record, error) {
	return recs[:len(recs)-1], nil
}

func testReports(n int) []forum.RawReport {
	base := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	reports := make([]forum.RawReport, n)
	for i := range reports {
		reports[i] = forum.RawReport{
			Forum:    corpus.ForumSmishtank,
			PostID:   fmt.Sprintf("grp-%03d", i),
			PostedAt: base.Add(time.Duration(i) * time.Minute),
			SMSText:  fmt.Sprintf("Account locked, verify: https://evil-clinic-%d.xyz/login", i%37),
			SenderID: "EVILCO",
		}
	}
	return reports
}

func mustFront(t *testing.T) *core.Pipeline {
	t.Helper()
	// Curation never touches services, so the front pipeline runs on an
	// empty Services set.
	pipe, err := core.NewPipeline(core.Services{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

func TestGroupRoutesByKeyAndMergesInOrder(t *testing.T) {
	front := mustFront(t)
	enrichers := make([]Enricher, 4)
	marks := make([]*markEnricher, 4)
	for i := range enrichers {
		marks[i] = &markEnricher{index: i}
		enrichers[i] = marks[i]
	}
	reg := telemetry.NewRegistry()
	g, err := NewGroup(front, enrichers, 0, reg)
	if err != nil {
		t.Fatal(err)
	}

	ds, err := g.Run(context.Background(), testReports(120))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) == 0 {
		t.Fatal("curation produced no records")
	}
	// The baseline: what an unsharded curate of the same reports yields.
	want := front.Curate(testReports(120))
	if len(want.Records) != len(ds.Records) {
		t.Fatalf("sharded run has %d records, unsharded curate has %d", len(ds.Records), len(want.Records))
	}
	ring := g.ring
	total := 0
	for i := range ds.Records {
		rec := &ds.Records[i]
		// Merge preserved curation order.
		if rec.ID != want.Records[i].ID {
			t.Fatalf("record %d: merged ID %q, curation order wants %q", i, rec.ID, want.Records[i].ID)
		}
		// The shard that marked the record is the one the ring routes its
		// key to — key affinity held.
		wantShard := ring.Shard(KeyOf(rec))
		if got := rec.GSBStatus; got != fmt.Sprintf("shard-%d", wantShard) {
			t.Errorf("record %q (key %q): marked %q, ring says shard %d", rec.ID, KeyOf(rec), got, wantShard)
		}
	}
	for _, m := range marks {
		total += m.seen
	}
	if total != len(ds.Records) {
		t.Errorf("shards saw %d records in total, want %d (each record exactly once)", total, len(ds.Records))
	}

	st := g.Stats()
	if st.Shards != 4 || st.Batches != 1 {
		t.Errorf("Stats: shards=%d batches=%d, want 4/1", st.Shards, st.Batches)
	}
	var routed int64
	for _, sh := range st.PerShard {
		routed += sh.Routed
	}
	if routed != int64(len(ds.Records)) {
		t.Errorf("Stats routed total %d, want %d", routed, len(ds.Records))
	}
	snap := reg.Snapshot()
	if snap.Counters["shard.batches"] != 1 {
		t.Errorf("shard.batches counter = %d, want 1", snap.Counters["shard.batches"])
	}
}

func TestGroupSurfacesLowestIndexedShardError(t *testing.T) {
	front := mustFront(t)
	boom := errors.New("breaker open")
	enrichers := []Enricher{
		&markEnricher{index: 0},
		&markEnricher{index: 1, fail: boom},
		&markEnricher{index: 2, fail: errors.New("other failure")},
		&markEnricher{index: 3},
	}
	g, err := NewGroup(front, enrichers, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Run(context.Background(), testReports(200))
	if err == nil {
		t.Fatal("Run swallowed a shard failure")
	}
	if !errors.Is(err, boom) && !strings.Contains(err.Error(), "other failure") {
		t.Errorf("error %q does not surface a shard failure", err)
	}
}

func TestGroupRejectsLengthMismatch(t *testing.T) {
	front := mustFront(t)
	g, err := NewGroup(front, []Enricher{shortEnricher{}}, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(context.Background(), testReports(40)); err == nil {
		t.Fatal("Run accepted an enricher that dropped records")
	}
}

func TestGroupConstructionAndSwap(t *testing.T) {
	front := mustFront(t)
	if _, err := NewGroup(nil, []Enricher{&markEnricher{}}, 0, telemetry.NewRegistry()); err == nil {
		t.Error("NewGroup accepted a nil front pipeline")
	}
	if _, err := NewGroup(front, nil, 0, telemetry.NewRegistry()); err == nil {
		t.Error("NewGroup accepted zero enrichers")
	}
	g, err := NewGroup(front, []Enricher{&markEnricher{}, &markEnricher{index: 1}}, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetEnrichers([]Enricher{&markEnricher{}}, true); err == nil {
		t.Error("SetEnrichers accepted a count mismatch")
	}
	if err := g.SetEnrichers([]Enricher{&markEnricher{}, &markEnricher{index: 1}}, true); err != nil {
		t.Errorf("SetEnrichers rejected a matching swap: %v", err)
	}
	if st := g.Stats(); len(st.PerShard) != 2 || !st.PerShard[0].Remote {
		t.Errorf("Stats after remote swap: %+v", st)
	}
}

// TestWriteCacheRatioIgnoresCoalescing pins the shard row's cache= column
// to what scheduling cannot move: two shards with the same misses and the
// same lookup total render the same line however their repeat lookups
// split between cache hits and coalesced followers.
func TestWriteCacheRatioIgnoresCoalescing(t *testing.T) {
	row := func(index int, hits, coalesced int64) ShardInfo {
		return ShardInfo{Index: index, Routed: 100, Stack: &StackStats{
			Enriched: 100,
			Cache: enrichcache.Stats{
				"hlr":   {Hits: hits, Misses: 30, Coalesced: coalesced},
				"whois": {Hits: 20, Misses: 10},
			},
		}}
	}
	var out strings.Builder
	st := GroupStats{Shards: 2, PerShard: []ShardInfo{row(0, 55, 5), row(0, 41, 19)}}
	if err := Write(&out, st); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("Write rendered %d lines, want a header and two rows:\n%s", len(lines), out.String())
	}
	if lines[1] != lines[2] {
		t.Fatalf("rows with equal misses and lookups differ:\n%s\n%s", lines[1], lines[2])
	}
	// 120 lookups, 40 misses: 80 served without a call of their own.
	if !strings.Contains(lines[1], " cache=67%") {
		t.Fatalf("row %q, want cache=67%%", lines[1])
	}
}
