package report

import (
	"encoding/base64"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/core"
)

// QueryView is the serving-side index over the projected dataset: the
// projection's Submit feeds it every batch it applies, so the
// /query/* endpoints answer from an always-current in-memory view without
// copying the full dataset per request. It indexes the records by list
// position and keeps no per-record row: inverted indexes by domain and
// sender hold positions, and an incremental union-find over positions
// clusters records into campaigns — the same linkage rule as
// internal/cluster (records sharing a domain or a sender belong to one
// campaign; a record with neither is a campaign of its own), maintained
// online instead of recomputed per render. A campaign's stable label is
// "c-" plus the smallest record ID in the cluster. The union-find also
// keeps each campaign's record count, so what Summarize costs follows the
// number of distinct keys, however many records the view has taken in.
type QueryView struct {
	mu sync.Mutex
	// recs is the indexed record list. Under a projection it is the
	// source's shared view (records are never modified once committed);
	// Add builds a list of the view's own.
	recs []core.Record
	// byDomain and bySender map a lowercased key to the positions of its
	// records, in list order. A key's first posting is its representative
	// in the union-find.
	byDomain map[string][]int32
	bySender map[string][]int32
	// keyless lists the records with neither a domain nor a sender: each
	// is a campaign root forever.
	keyless []int32

	// Union-find over record positions. A root is always the smallest
	// position in its set, so a root with a domain (or sender) is that
	// key's representative. size and minID are read at roots only: the
	// campaign's record count and the position of its smallest record
	// ID, the label source. campaigns counts the roots.
	parent    []int32
	size      []int32
	minID     []int32
	campaigns int
}

// queryRec is the compact serving projection of one core.Record, built
// only for the rows a /query/reports page returns.
type queryRec struct {
	ID         string    `json:"id"`
	Forum      string    `json:"forum"`
	PostedAt   time.Time `json:"posted_at"`
	Domain     string    `json:"domain,omitempty"`
	Sender     string    `json:"sender,omitempty"`
	SenderKind string    `json:"sender_kind,omitempty"`
	Campaign   string    `json:"campaign"`
	ScamType   string    `json:"scam_type,omitempty"`
	Brand      string    `json:"brand,omitempty"`
	Text       string    `json:"text,omitempty"`
}

// NewQueryView returns an empty view.
func NewQueryView() *QueryView {
	return &QueryView{
		byDomain: make(map[string][]int32),
		bySender: make(map[string][]int32),
	}
}

// Add copies records onto the end of the view's list and indexes them.
// A projection does not call it: it indexes its source's records in place
// (extend).
func (v *QueryView) Add(records []core.Record) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.indexLocked(append(v.recs, records...))
}

// extend indexes the records of all past the view's current length. all
// must hold the records indexed so far as its prefix; the view keeps it
// without copying.
func (v *QueryView) extend(all []core.Record) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.indexLocked(all)
}

func (v *QueryView) indexLocked(all []core.Record) {
	from := len(v.recs)
	v.recs = all
	v.parent = slices.Grow(v.parent, len(all)-from)
	v.size = slices.Grow(v.size, len(all)-from)
	v.minID = slices.Grow(v.minID, len(all)-from)
	for i := from; i < len(all); i++ {
		pos := int32(i)
		v.parent = append(v.parent, pos)
		v.size = append(v.size, 1)
		v.minID = append(v.minID, pos)
		v.campaigns++
		r := &all[i]
		domain, sender := strings.ToLower(r.Domain), strings.ToLower(r.SenderRaw)
		if domain == "" && sender == "" {
			v.keyless = append(v.keyless, pos)
			continue
		}
		if domain != "" {
			v.joinLocked(v.byDomain, domain, pos)
		}
		if sender != "" {
			v.joinLocked(v.bySender, sender, pos)
		}
	}
}

// joinLocked posts pos under key and unions it with the key's
// representative.
func (v *QueryView) joinLocked(index map[string][]int32, key string, pos int32) {
	posts := index[key]
	index[key] = append(posts, pos)
	if len(posts) > 0 {
		v.unionLocked(posts[0], pos)
	}
}

func (v *QueryView) findLocked(x int32) int32 {
	root := x
	for v.parent[root] != root {
		root = v.parent[root]
	}
	for v.parent[x] != root { // path compression
		x, v.parent[x] = v.parent[x], root
	}
	return root
}

func (v *QueryView) unionLocked(a, b int32) {
	ra, rb := v.findLocked(a), v.findLocked(b)
	if ra == rb {
		return
	}
	// The smaller position survives, so every root stays the first record
	// of its campaign whatever order the merges come in.
	if rb < ra {
		ra, rb = rb, ra
	}
	v.parent[rb] = ra
	v.size[ra] += v.size[rb]
	if v.recs[v.minID[rb]].ID < v.recs[v.minID[ra]].ID {
		v.minID[ra] = v.minID[rb]
	}
	v.campaigns--
}

// campaignIDLocked returns the smallest record ID in the campaign of the
// record at pos: its label without the "c-".
func (v *QueryView) campaignIDLocked(pos int32) string {
	return v.recs[v.minID[v.findLocked(pos)]].ID
}

// rowLocked builds the serving row of the record at pos.
func (v *QueryView) rowLocked(pos int32) queryRec {
	r := &v.recs[pos]
	return queryRec{
		ID:         r.ID,
		Forum:      string(r.Forum),
		PostedAt:   r.PostedAt,
		Domain:     strings.ToLower(r.Domain),
		Sender:     strings.ToLower(r.SenderRaw),
		SenderKind: string(r.SenderKind),
		Campaign:   "c-" + v.campaignIDLocked(pos),
		ScamType:   string(r.Annotation.ScamType),
		Brand:      r.Annotation.Brand,
		Text:       r.Text,
	}
}

// ReportsQuery filters /query/reports. Zero values mean "no constraint";
// Limit <= 0 selects the default of 100 (capped at MaxQueryLimit).
type ReportsQuery struct {
	Domain   string
	Sender   string
	Campaign string
	Since    time.Time // inclusive, against PostedAt
	Until    time.Time // exclusive, against PostedAt
	Limit    int
	// After resumes a paginated walk strictly after this (PostedAt, ID)
	// position — the decoded form of a ?cursor= token. Zero means "from
	// the start".
	After Cursor
}

// Cursor is an opaque pagination position in the (posted_at, id) order
// /query/reports returns. The encoded form is URL-safe base64 over
// "<RFC3339Nano posted_at>|<id>"; clients must treat it as opaque.
type Cursor struct {
	PostedAt time.Time
	ID       string
}

// IsZero reports whether the cursor is unset.
func (c Cursor) IsZero() bool { return c.PostedAt.IsZero() && c.ID == "" }

// Encode renders the cursor as its opaque token.
func (c Cursor) Encode() string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(c.PostedAt.UTC().Format(time.RFC3339Nano) + "|" + c.ID))
}

// DecodeCursor parses an opaque cursor token.
func DecodeCursor(token string) (Cursor, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return Cursor{}, fmt.Errorf("not base64: %w", err)
	}
	ts, id, ok := strings.Cut(string(raw), "|")
	if !ok {
		return Cursor{}, fmt.Errorf("malformed cursor payload")
	}
	t, err := time.Parse(time.RFC3339Nano, ts)
	if err != nil {
		return Cursor{}, fmt.Errorf("bad cursor timestamp: %w", err)
	}
	return Cursor{PostedAt: t, ID: id}, nil
}

// Query limits: the serving layer is for slicing, not bulk export.
const (
	DefaultQueryLimit = 100
	MaxQueryLimit     = 1000
)

// ReportsResult is the /query/reports response body.
type ReportsResult struct {
	TotalMatched int        `json:"total_matched"`
	Returned     int        `json:"returned"`
	Reports      []queryRec `json:"reports"`
	// NextCursor is the opaque token resuming after the last returned
	// report; empty when this page exhausted the matches. TotalMatched
	// counts matches after the request's cursor, so a full walk sums each
	// page's Returned, not any one TotalMatched.
	NextCursor string `json:"next_cursor,omitempty"`
}

// Reports answers a filtered slice of the indexed records, ordered by
// (posted_at, id) ascending, truncated to the query limit. Matching works
// on positions; only the returned page's rows are built.
func (v *QueryView) Reports(q ReportsQuery) ReportsResult {
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	if limit > MaxQueryLimit {
		limit = MaxQueryLimit
	}
	domain, sender := strings.ToLower(q.Domain), strings.ToLower(q.Sender)
	// Every label is "c-" plus a record ID, so no other value matches.
	campaignID, isLabel := strings.CutPrefix(q.Campaign, "c-")
	v.mu.Lock()
	defer v.mu.Unlock()

	// Narrow the candidate set with the most selective index available;
	// without a domain or sender every position is a candidate.
	var candidates []int32
	n := len(v.recs)
	switch {
	case domain != "":
		candidates = v.byDomain[domain]
		n = len(candidates)
	case sender != "":
		candidates = v.bySender[sender]
		n = len(candidates)
	}

	recs := v.recs
	var matched []int32
	for k := 0; k < n; k++ {
		pos := int32(k)
		if candidates != nil {
			pos = candidates[k]
		}
		r := &recs[pos]
		// Candidates drawn from a key's postings already match that key;
		// only a sender beside a domain is left to check.
		if domain != "" && sender != "" && strings.ToLower(r.SenderRaw) != sender {
			continue
		}
		if !q.Since.IsZero() && r.PostedAt.Before(q.Since) {
			continue
		}
		if !q.Until.IsZero() && !r.PostedAt.Before(q.Until) {
			continue
		}
		if q.Campaign != "" && (!isLabel || v.campaignIDLocked(pos) != campaignID) {
			continue
		}
		if !q.After.IsZero() {
			// Strictly after the cursor position in (posted_at, id) order —
			// the record the cursor encodes is the last one already served.
			if r.PostedAt.Before(q.After.PostedAt) {
				continue
			}
			if r.PostedAt.Equal(q.After.PostedAt) && r.ID <= q.After.ID {
				continue
			}
		}
		matched = append(matched, pos)
	}
	sort.Slice(matched, func(a, b int) bool {
		ra, rb := &recs[matched[a]], &recs[matched[b]]
		if !ra.PostedAt.Equal(rb.PostedAt) {
			return ra.PostedAt.Before(rb.PostedAt)
		}
		return ra.ID < rb.ID
	})
	res := ReportsResult{TotalMatched: len(matched)}
	if len(matched) > limit {
		matched = matched[:limit]
		last := &recs[matched[len(matched)-1]]
		res.NextCursor = Cursor{PostedAt: last.PostedAt, ID: last.ID}.Encode()
	}
	res.Reports = make([]queryRec, len(matched))
	for i, pos := range matched {
		res.Reports[i] = v.rowLocked(pos)
	}
	res.Returned = len(matched)
	return res
}

// NameCount is one leaderboard row in the summary.
type NameCount struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// Summary is the /query/summary response body. Leaderboards are sorted by
// count descending, name ascending — deterministic, so two views over the
// same records (e.g. pre-kill and post-restart) serialize identically.
type Summary struct {
	Records      int         `json:"records"`
	Domains      int         `json:"domains"`
	Senders      int         `json:"senders"`
	Campaigns    int         `json:"campaigns"`
	TopDomains   []NameCount `json:"top_domains"`
	TopSenders   []NameCount `json:"top_senders"`
	TopCampaigns []NameCount `json:"top_campaigns"`
}

// DefaultSummaryTop is how many leaderboard rows Summarize returns when
// the caller does not say.
const DefaultSummaryTop = 10

// Summarize computes the dataset roll-up: distinct domain/sender/campaign
// counts plus top-N leaderboards for each. It reads the per-key counts the
// indexes and the union-find already hold, so its cost follows the number
// of distinct domains, senders and campaigns, not the number of records.
func (v *QueryView) Summarize(top int) Summary {
	if top <= 0 {
		top = DefaultSummaryTop
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	s := Summary{
		Records:   len(v.recs),
		Domains:   len(v.byDomain),
		Senders:   len(v.bySender),
		Campaigns: v.campaigns,
	}
	s.TopDomains = topOf(v.byDomain, top)
	s.TopSenders = topOf(v.bySender, top)

	// Rank campaigns by their bare smallest record ID: every label is that
	// ID behind the same "c-", so the order is unchanged and only the rows
	// kept pay for building a label. A root is the first record of its
	// campaign, so it is the representative of its own domain and sender:
	// each root is offered once, through its domain if it has one, else
	// its sender, else the keyless list.
	camps := newLeaderboard(top, v.campaigns)
	for _, posts := range v.byDomain {
		if root := posts[0]; v.parent[root] == root {
			camps.offer(v.recs[v.minID[root]].ID, int(v.size[root]))
		}
	}
	for _, posts := range v.bySender {
		if root := posts[0]; v.parent[root] == root && v.recs[root].Domain == "" {
			camps.offer(v.recs[v.minID[root]].ID, int(v.size[root]))
		}
	}
	for _, root := range v.keyless {
		camps.offer(v.recs[root].ID, 1)
	}
	s.TopCampaigns = camps.rows
	for i := range s.TopCampaigns {
		s.TopCampaigns[i].Name = "c-" + s.TopCampaigns[i].Name
	}
	return s
}

func topOf(index map[string][]int32, top int) []NameCount {
	lb := newLeaderboard(top, len(index))
	for name, posts := range index {
		lb.offer(name, len(posts))
	}
	return lb.rows
}

// leaderboard keeps the best top rows offered to it, ordered by count
// descending, name ascending. Once it is full, an offer that does not beat
// the last row costs one comparison, so ranking K keys takes O(K) time
// plus the few offers that displace a row, with no K-sized sort.
type leaderboard struct {
	rows []NameCount
	top  int
}

func newLeaderboard(top, keys int) *leaderboard {
	return &leaderboard{rows: make([]NameCount, 0, min(top, keys)), top: top}
}

func (lb *leaderboard) offer(name string, count int) {
	row := NameCount{Name: name, Count: count}
	if len(lb.rows) == lb.top && !ranksBefore(row, lb.rows[len(lb.rows)-1]) {
		return
	}
	i := sort.Search(len(lb.rows), func(i int) bool { return ranksBefore(row, lb.rows[i]) })
	if len(lb.rows) < lb.top {
		lb.rows = append(lb.rows, NameCount{})
	}
	copy(lb.rows[i+1:], lb.rows[i:])
	lb.rows[i] = row
}

// ranksBefore orders leaderboard rows: count descending, then name
// ascending.
func ranksBefore(a, b NameCount) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Name < b.Name
}

// ReportsHandler serves GET /query/reports: parameters domain, sender,
// campaign, since/until (RFC 3339, inclusive/exclusive against the post
// time), limit (default 100, max 1000), cursor (opaque, from a previous
// response's next_cursor), and format (json, the default, or csv). Unknown
// parameters and malformed values are a 400, not a silent full-table
// answer.
func (v *QueryView) ReportsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		qs := r.URL.Query()
		for key := range qs {
			switch key {
			case "domain", "sender", "campaign", "since", "until", "limit", "cursor", "format":
			default:
				http.Error(w, fmt.Sprintf("unknown query parameter %q", key), http.StatusBadRequest)
				return
			}
		}
		q := ReportsQuery{
			Domain:   qs.Get("domain"),
			Sender:   qs.Get("sender"),
			Campaign: qs.Get("campaign"),
		}
		var err error
		if raw := qs.Get("since"); raw != "" {
			if q.Since, err = time.Parse(time.RFC3339, raw); err != nil {
				http.Error(w, fmt.Sprintf("bad since: %v", err), http.StatusBadRequest)
				return
			}
		}
		if raw := qs.Get("until"); raw != "" {
			if q.Until, err = time.Parse(time.RFC3339, raw); err != nil {
				http.Error(w, fmt.Sprintf("bad until: %v", err), http.StatusBadRequest)
				return
			}
		}
		if raw := qs.Get("limit"); raw != "" {
			if q.Limit, err = strconv.Atoi(raw); err != nil || q.Limit < 1 {
				http.Error(w, fmt.Sprintf("bad limit %q", raw), http.StatusBadRequest)
				return
			}
		}
		if raw := qs.Get("cursor"); raw != "" {
			if q.After, err = DecodeCursor(raw); err != nil {
				http.Error(w, fmt.Sprintf("bad cursor: %v", err), http.StatusBadRequest)
				return
			}
		}
		format := qs.Get("format")
		switch format {
		case "", "json":
			writeJSON(w, v.Reports(q))
		case "csv":
			writeReportsCSV(w, v.Reports(q))
		default:
			http.Error(w, fmt.Sprintf("bad format %q (json or csv)", format), http.StatusBadRequest)
		}
	})
}

// writeReportsCSV renders a reports page as CSV for analysis tooling. The
// pagination cursor rides in the X-Next-Cursor header, since CSV has no
// envelope to carry it.
func writeReportsCSV(w http.ResponseWriter, res ReportsResult) {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	if res.NextCursor != "" {
		w.Header().Set("X-Next-Cursor", res.NextCursor)
	}
	cw := csv.NewWriter(w)
	_ = cw.Write([]string{"id", "forum", "posted_at", "domain", "sender", "sender_kind", "campaign", "scam_type", "brand", "text"})
	for _, r := range res.Reports {
		_ = cw.Write([]string{
			r.ID, r.Forum, r.PostedAt.UTC().Format(time.RFC3339Nano),
			r.Domain, r.Sender, r.SenderKind, r.Campaign, r.ScamType, r.Brand, r.Text,
		})
	}
	cw.Flush()
}

// SummaryHandler serves GET /query/summary: parameter top (default 10)
// sizes the leaderboards.
func (v *QueryView) SummaryHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		top := 0
		if raw := r.URL.Query().Get("top"); raw != "" {
			var err error
			if top, err = strconv.Atoi(raw); err != nil || top < 1 {
				http.Error(w, fmt.Sprintf("bad top %q", raw), http.StatusBadRequest)
				return
			}
		}
		writeJSON(w, v.Summarize(top))
	})
}

func writeJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) //nolint:errcheck // network write; nothing to do on failure
}
