package report

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/senderid"
)

// oracleView answers Summarize and Reports by brute force over a plain
// record list: campaigns are found by merging every pair of records that
// share a lowercased domain or sender until nothing changes, and every
// query scans, sorts and truncates the whole list.
type oracleView struct {
	recs []core.Record
	camp []int // campaign number of each record
}

func newOracleView(recs []core.Record) *oracleView {
	o := &oracleView{recs: recs, camp: make([]int, len(recs))}
	for i := range o.camp {
		o.camp[i] = i
	}
	linked := func(a, b core.Record) bool {
		da, db := strings.ToLower(a.Domain), strings.ToLower(b.Domain)
		sa, sb := strings.ToLower(a.SenderRaw), strings.ToLower(b.SenderRaw)
		return (da != "" && da == db) || (sa != "" && sa == sb)
	}
	for changed := true; changed; {
		changed = false
		for i := range recs {
			for j := range recs {
				if o.camp[i] != o.camp[j] && linked(recs[i], recs[j]) {
					from, to := max(o.camp[i], o.camp[j]), min(o.camp[i], o.camp[j])
					for k := range o.camp {
						if o.camp[k] == from {
							o.camp[k] = to
						}
					}
					changed = true
				}
			}
		}
	}
	return o
}

// label is the campaign label of record i: "c-" plus the smallest ID in
// its campaign.
func (o *oracleView) label(i int) string {
	best := ""
	for k, c := range o.camp {
		if c == o.camp[i] && (best == "" || o.recs[k].ID < best) {
			best = o.recs[k].ID
		}
	}
	return "c-" + best
}

func (o *oracleView) summarize(top int) Summary {
	if top <= 0 {
		top = DefaultSummaryTop
	}
	domains, senders, camps := map[string]int{}, map[string]int{}, map[string]int{}
	for i, r := range o.recs {
		if d := strings.ToLower(r.Domain); d != "" {
			domains[d]++
		}
		if s := strings.ToLower(r.SenderRaw); s != "" {
			senders[s]++
		}
		camps[o.label(i)]++ // IDs are unique, so labels are too
	}
	board := func(counts map[string]int) []NameCount {
		rows := []NameCount{}
		for name, n := range counts {
			rows = append(rows, NameCount{Name: name, Count: n})
		}
		sort.Slice(rows, func(a, b int) bool {
			if rows[a].Count != rows[b].Count {
				return rows[a].Count > rows[b].Count
			}
			return rows[a].Name < rows[b].Name
		})
		return rows[:min(top, len(rows))]
	}
	return Summary{
		Records:      len(o.recs),
		Domains:      len(domains),
		Senders:      len(senders),
		Campaigns:    len(camps),
		TopDomains:   board(domains),
		TopSenders:   board(senders),
		TopCampaigns: board(camps),
	}
}

func (o *oracleView) reports(q ReportsQuery) ReportsResult {
	var rows []queryRec
	for i, r := range o.recs {
		row := queryRec{
			ID:         r.ID,
			Forum:      string(r.Forum),
			PostedAt:   r.PostedAt,
			Domain:     strings.ToLower(r.Domain),
			Sender:     strings.ToLower(r.SenderRaw),
			SenderKind: string(r.SenderKind),
			Campaign:   o.label(i),
			ScamType:   string(r.Annotation.ScamType),
			Brand:      r.Annotation.Brand,
			Text:       r.Text,
		}
		switch {
		case q.Domain != "" && row.Domain != strings.ToLower(q.Domain),
			q.Sender != "" && row.Sender != strings.ToLower(q.Sender),
			q.Campaign != "" && row.Campaign != q.Campaign,
			!q.Since.IsZero() && row.PostedAt.Before(q.Since),
			!q.Until.IsZero() && !row.PostedAt.Before(q.Until),
			!q.After.IsZero() && (row.PostedAt.Before(q.After.PostedAt) ||
				row.PostedAt.Equal(q.After.PostedAt) && row.ID <= q.After.ID):
			continue
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(a, b int) bool {
		if !rows[a].PostedAt.Equal(rows[b].PostedAt) {
			return rows[a].PostedAt.Before(rows[b].PostedAt)
		}
		return rows[a].ID < rows[b].ID
	})
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	limit = min(limit, MaxQueryLimit)
	res := ReportsResult{TotalMatched: len(rows), Reports: []queryRec{}}
	if len(rows) > limit {
		rows = rows[:limit]
		last := rows[len(rows)-1]
		res.NextCursor = Cursor{PostedAt: last.PostedAt, ID: last.ID}.Encode()
	}
	res.Reports = append(res.Reports, rows...)
	res.Returned = len(rows)
	return res
}

// TestQueryViewMatchesOracle is the randomized differential test of the
// positional index. Each seed draws records whose domains and senders
// come from small pools, in random case, and are often empty, shuffles
// their (unique) IDs so the smallest ID of a campaign is seldom its first
// record, and feeds them to a projection in random batch splits. After
// every batch, Summarize(top) and Reports(q) over random filters, cursors
// and limits must encode to the same JSON as the brute-force oracle.
func TestQueryViewMatchesOracle(t *testing.T) {
	base := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(160)
		pool := func(size int, format string) string {
			if rng.Intn(10) < 3 {
				return "" // a third of records lack the field
			}
			key := fmt.Sprintf(format, rng.Intn(size))
			if rng.Intn(3) == 0 {
				key = strings.ToUpper(key)
			}
			return key
		}
		recs := make([]core.Record, n)
		for i, id := range rng.Perm(n) {
			r := queryRecord(fmt.Sprintf("r%03d", id), pool(1+n/6, "d%d.test"), pool(1+n/5, "s%d-bank"),
				base.Add(time.Duration(rng.Intn(n/2))*time.Hour)) // shared times exercise the ID tiebreak
			r.SenderKind = []senderid.Kind{"", senderid.KindPhone, senderid.KindAlphanumeric}[rng.Intn(3)]
			recs[i] = r
		}

		p := NewProjection(nil, 0)
		view := NewQueryView() // fed through Add, the view's own list
		for fed := 0; fed < n; {
			size := min(n-fed, 1+rng.Intn(25))
			b := &core.Dataset{Records: recs[fed : fed+size]}
			if err := p.Submit(context.Background(), b, time.Time{}); err != nil {
				t.Fatal(err)
			}
			view.Add(b.Records)
			fed += size
			o := newOracleView(recs[:fed])
			for _, v := range []*QueryView{p.Query(), view} {
				checkAgainstOracle(t, rng, v, o, fmt.Sprintf("seed %d, %d records", seed, fed))
			}
		}
		p.Close()
	}
}

// checkAgainstOracle compares one view with the oracle over a few
// summaries and random report queries, following next_cursor for some.
func checkAgainstOracle(t *testing.T, rng *rand.Rand, v *QueryView, o *oracleView, when string) {
	t.Helper()
	same := func(what string, got, want any) {
		t.Helper()
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Fatalf("%s, %s: view diverges from the oracle\ngot  %s\nwant %s", when, what, g, w)
		}
	}
	for _, top := range []int{0, 1, 3, 1 + rng.Intn(50)} {
		same(fmt.Sprintf("Summarize(%d)", top), v.Summarize(top), o.summarize(top))
	}
	pick := func() core.Record { return o.recs[rng.Intn(len(o.recs))] }
	for k := 0; k < 8; k++ {
		var q ReportsQuery
		if rng.Intn(3) == 0 {
			q.Domain = pick().Domain
			if rng.Intn(2) == 0 {
				q.Domain = strings.ToUpper(q.Domain)
			}
		}
		if rng.Intn(3) == 0 {
			q.Sender = pick().SenderRaw
		}
		switch rng.Intn(5) {
		case 0:
			q.Campaign = o.label(rng.Intn(len(o.recs)))
		case 1:
			q.Campaign = []string{"c-", "c-nope", "r001", "x-r001"}[rng.Intn(4)]
		}
		if rng.Intn(4) == 0 {
			q.Since = pick().PostedAt
		}
		if rng.Intn(4) == 0 {
			q.Until = pick().PostedAt.Add(time.Duration(rng.Intn(3)) * time.Hour)
		}
		q.Limit = []int{0, 1, 2, 5, 1 + rng.Intn(40), MaxQueryLimit + 5}[rng.Intn(6)]
		if rng.Intn(3) == 0 {
			r := pick()
			q.After = Cursor{PostedAt: r.PostedAt, ID: r.ID}
		}
		// Walk a few pages: each next_cursor resumes the same query.
		for page := 0; page < 3; page++ {
			got, want := v.Reports(q), o.reports(q)
			same(fmt.Sprintf("Reports(%+v)", q), got, want)
			if got.NextCursor == "" {
				break
			}
			after, err := DecodeCursor(got.NextCursor)
			if err != nil {
				t.Fatal(err)
			}
			q.After = after
		}
	}
}
