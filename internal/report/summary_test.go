package report

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
)

// recountSummary is the reference Summarize is checked against: it derives
// every leaderboard by visiting each record and counting its domain, its
// sender and its campaign.
func recountSummary(v *QueryView, top int) Summary {
	v.mu.Lock()
	defer v.mu.Unlock()
	domains, senders, roots := map[string]int{}, map[string]int{}, map[int32]int{}
	for i, r := range v.recs {
		if d := strings.ToLower(r.Domain); d != "" {
			domains[d]++
		}
		if s := strings.ToLower(r.SenderRaw); s != "" {
			senders[s]++
		}
		roots[v.findLocked(int32(i))]++
	}
	// Count campaigns by root, not by label: two records under one ID
	// can head two campaigns.
	camps := []NameCount{}
	for root, n := range roots {
		camps = append(camps, NameCount{Name: "c-" + v.recs[v.minID[root]].ID, Count: n})
	}
	rowsOf := func(counts map[string]int) []NameCount {
		rows := []NameCount{}
		for name, n := range counts {
			rows = append(rows, NameCount{Name: name, Count: n})
		}
		return rows
	}
	board := func(rows []NameCount) []NameCount {
		sort.Slice(rows, func(a, b int) bool {
			if rows[a].Count != rows[b].Count {
				return rows[a].Count > rows[b].Count
			}
			return rows[a].Name < rows[b].Name
		})
		if len(rows) > top {
			rows = rows[:top]
		}
		return rows
	}
	return Summary{
		Records:      len(v.recs),
		Domains:      len(domains),
		Senders:      len(senders),
		Campaigns:    len(camps),
		TopDomains:   board(rowsOf(domains)),
		TopSenders:   board(rowsOf(senders)),
		TopCampaigns: board(camps),
	}
}

// assertSummaryMatchesRecount compares Summarize with the reference as the
// JSON /query/summary serves, for every leaderboard size the tests cover.
func assertSummaryMatchesRecount(t *testing.T, v *QueryView, when string) {
	t.Helper()
	for _, top := range []int{1, 3, 10, 1000} {
		got, _ := json.Marshal(v.Summarize(top))
		want, _ := json.Marshal(recountSummary(v, top))
		if string(got) != string(want) {
			t.Fatalf("%s, top=%d: Summarize diverges from the per-record recount\ngot  %s\nwant %s", when, top, got, want)
		}
	}
}

// TestSummarizeMatchesRecount feeds randomized batches whose records reuse
// IDs, domains and senders from small pools, so campaigns keep merging as
// records arrive, and checks the summary against the recount after every
// batch.
func TestSummarizeMatchesRecount(t *testing.T) {
	at := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := NewQueryView()
		pick := func(pool int, format string) string {
			if rng.Intn(10) < 3 {
				return "" // a third of records lack the field
			}
			return fmt.Sprintf(format, rng.Intn(pool))
		}
		for b := 0; b < 60; b++ {
			batch := make([]core.Record, 1+rng.Intn(8))
			for i := range batch {
				// 400 possible IDs over ~270 records: duplicates occur.
				id := fmt.Sprintf("r%03d", rng.Intn(400))
				domain := pick(40, "d%d.test")
				if rng.Intn(4) == 0 {
					domain = fmt.Sprintf("D%d.TEST", rng.Intn(40)) // folds onto d%d.test
				}
				batch[i] = queryRecord(id, domain, pick(30, "+1555%04d"), at.Add(time.Duration(b)*time.Minute))
			}
			v.Add(batch)
			assertSummaryMatchesRecount(t, v, fmt.Sprintf("seed %d after batch %d", seed, b))
		}
	}
}

// TestSummarizeLateJoinAndEdgeRecords pins the cases the randomized test
// reaches only by chance: a late record that joins two existing campaigns,
// a duplicated record ID, and records with neither a domain nor a sender.
func TestSummarizeLateJoinAndEdgeRecords(t *testing.T) {
	at := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	v := NewQueryView()
	v.Add([]core.Record{
		queryRecord("a1", "x.test", "", at),
		queryRecord("b1", "", "+15550001", at),
		queryRecord("n1", "", "", at), // neither: a campaign of its own
	})
	assertSummaryMatchesRecount(t, v, "before the late join")
	if got := v.Summarize(0).Campaigns; got != 3 {
		t.Fatalf("campaigns before the late join = %d, want 3", got)
	}

	v.Add([]core.Record{queryRecord("z9", "x.test", "+15550001", at)})
	assertSummaryMatchesRecount(t, v, "after the late join")
	s := v.Summarize(0)
	if s.Campaigns != 2 || s.TopCampaigns[0] != (NameCount{Name: "c-a1", Count: 3}) {
		t.Fatalf("after the late join: campaigns=%d top=%+v, want 2 with c-a1 x3", s.Campaigns, s.TopCampaigns)
	}

	// A second record under n1's ID carries no domain or sender either.
	// Only shared infrastructure links records, so it is a campaign of its
	// own, as is n2.
	v.Add([]core.Record{queryRecord("n1", "", "", at), queryRecord("n2", "", "", at)})
	assertSummaryMatchesRecount(t, v, "after the duplicate ID")
	s = v.Summarize(0)
	if s.Campaigns != 4 || s.Records != 6 {
		t.Fatalf("after the duplicate ID: campaigns=%d records=%d, want 4 and 6", s.Campaigns, s.Records)
	}
}

// summaryView holds n records; record i gets domain i/perDomain%domains
// and sender i/perSender%senders. With per* = 1 the views cycle through the
// same keys whatever n is; with a large modulus every few records bring a
// new domain and sender, as when each wave is a new campaign.
func summaryView(n, perDomain, domains, perSender, senders int) *QueryView {
	at := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = queryRecord(fmt.Sprintf("r%06d", i), fmt.Sprintf("d%d.test", i/perDomain%domains),
			fmt.Sprintf("+1555%06d", i/perSender%senders), at.Add(time.Duration(i)*time.Second))
	}
	v := NewQueryView()
	v.Add(recs)
	return v
}

// cyclingView holds n records whose domains and senders cycle through the
// same 100 domains and 150 senders whatever n is, so views of different
// sizes differ only in how much history they hold.
func cyclingView(n int) *QueryView { return summaryView(n, 1, 100, 1, 150) }

// TestSummarizeIndependentOfHistory guards the incremental summary: over
// the same set of domains, senders and campaigns, a view holding 20x the
// records must not allocate more per Summarize.
func TestSummarizeIndependentOfHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	small, large := cyclingView(1_000), cyclingView(20_000)
	if a, b := small.Summarize(10), large.Summarize(10); a.Domains != b.Domains || a.Senders != b.Senders || a.Campaigns != b.Campaigns {
		t.Fatalf("views differ in distinct keys: %+v vs %+v", a, b)
	}
	smallAllocs := testing.AllocsPerRun(20, func() { small.Summarize(10) })
	largeAllocs := testing.AllocsPerRun(20, func() { large.Summarize(10) })
	if largeAllocs > smallAllocs {
		t.Fatalf("Summarize(10) allocates %.0f/op over 20k records but %.0f/op over 1k: its cost grows with history",
			largeAllocs, smallAllocs)
	}
}

var summarySink Summary

// BenchmarkQueryViewSummarize runs Summarize over 20k records, once over
// the 100 domains and 150 senders of cyclingView and once over a view
// where every 4th record brings a new domain and every 3rd a new sender.
func BenchmarkQueryViewSummarize(b *testing.B) {
	for _, bc := range []struct {
		name string
		v    *QueryView
	}{
		{"shared-keys", cyclingView(20_000)},
		{"growing-keys", summaryView(20_000, 4, 20_000, 3, 20_000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				summarySink = bc.v.Summarize(DefaultSummaryTop)
			}
		})
	}
}
