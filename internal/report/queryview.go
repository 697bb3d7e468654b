package report

import (
	"encoding/base64"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
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
// copying the full dataset per request. It keeps a compact per-record
// projection (id, forum, time, domain, sender, annotation labels) plus
// inverted indexes by domain and sender, and clusters records into
// campaigns with an incremental union-find over shared infrastructure —
// the same linkage rule as internal/cluster (records sharing a domain or
// a sender belong to one campaign), maintained online instead of
// recomputed per render. A campaign's stable label is "c-" plus the
// smallest record ID in the cluster. The union-find also keeps each
// campaign's record count, so what Summarize costs follows the number of
// distinct keys, however many records the view has taken in.
type QueryView struct {
	mu       sync.Mutex
	recs     []queryRec
	byDomain map[string][]int // lowercased domain -> indexes into recs
	bySender map[string][]int // lowercased sender -> indexes into recs

	// Union-find over cluster keys: "d:"+domain, "s:"+sender, "r:"+id for
	// records with neither. minID tracks each root's smallest record ID —
	// the campaign label source — and size its record count; once Add
	// returns, every root is one campaign, so len(size) counts them.
	parent map[string]string
	minID  map[string]string
	size   map[string]int
}

// queryRec is the compact serving projection of one core.Record.
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
		byDomain: make(map[string][]int),
		bySender: make(map[string][]int),
		parent:   make(map[string]string),
		minID:    make(map[string]string),
		size:     make(map[string]int),
	}
}

// Add indexes an applied batch. Called by the projection's Submit with
// every batch it applies, under no external lock.
func (v *QueryView) Add(records []core.Record) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, r := range records {
		idx := len(v.recs)
		qr := queryRec{
			ID:         r.ID,
			Forum:      string(r.Forum),
			PostedAt:   r.PostedAt,
			Domain:     strings.ToLower(r.Domain),
			Sender:     strings.ToLower(r.SenderRaw),
			SenderKind: string(r.SenderKind),
			ScamType:   string(r.Annotation.ScamType),
			Brand:      r.Annotation.Brand,
			Text:       r.Text,
		}
		v.recs = append(v.recs, qr)
		keys := []string{"r:" + r.ID}
		if qr.Domain != "" {
			v.byDomain[qr.Domain] = append(v.byDomain[qr.Domain], idx)
			keys = append(keys, "d:"+qr.Domain)
		}
		if qr.Sender != "" {
			v.bySender[qr.Sender] = append(v.bySender[qr.Sender], idx)
			keys = append(keys, "s:"+qr.Sender)
		}
		for _, k := range keys {
			v.noteLocked(k, r.ID)
		}
		for i := 1; i < len(keys); i++ {
			v.unionLocked(keys[0], keys[i])
		}
		// Every key of the record now shares one root, the root of its
		// campaign key (campaignLocked), so keys[0] finds it as well.
		v.size[v.findLocked(keys[0])]++
	}
}

// noteLocked ensures a key exists in the union-find and folds the record
// ID into its root's minimum.
func (v *QueryView) noteLocked(key, recID string) {
	root := v.findLocked(key)
	if cur, ok := v.minID[root]; !ok || recID < cur {
		v.minID[root] = recID
	}
}

func (v *QueryView) findLocked(key string) string {
	p, ok := v.parent[key]
	if !ok {
		v.parent[key] = key
		return key
	}
	if p == key {
		return key
	}
	root := v.findLocked(p)
	v.parent[key] = root // path compression
	return root
}

func (v *QueryView) unionLocked(a, b string) {
	ra, rb := v.findLocked(a), v.findLocked(b)
	if ra == rb {
		return
	}
	// Attach the lexicographically larger root under the smaller so the
	// surviving root is deterministic regardless of merge order.
	if rb < ra {
		ra, rb = rb, ra
	}
	v.parent[rb] = ra
	if id, ok := v.minID[rb]; ok {
		if cur, ok2 := v.minID[ra]; !ok2 || id < cur {
			v.minID[ra] = id
		}
		delete(v.minID, rb)
	}
	if n, ok := v.size[rb]; ok {
		v.size[ra] += n
		delete(v.size, rb)
	}
}

// campaignLocked returns the record's campaign label.
func (v *QueryView) campaignLocked(r queryRec) string {
	key := "r:" + r.ID
	if r.Domain != "" {
		key = "d:" + r.Domain
	} else if r.Sender != "" {
		key = "s:" + r.Sender
	}
	return "c-" + v.minID[v.findLocked(key)]
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
// (posted_at, id) ascending, truncated to the query limit.
func (v *QueryView) Reports(q ReportsQuery) ReportsResult {
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	if limit > MaxQueryLimit {
		limit = MaxQueryLimit
	}
	v.mu.Lock()
	defer v.mu.Unlock()

	// Narrow the candidate set with the most selective index available.
	var candidates []int
	switch {
	case q.Domain != "":
		candidates = v.byDomain[strings.ToLower(q.Domain)]
	case q.Sender != "":
		candidates = v.bySender[strings.ToLower(q.Sender)]
	default:
		candidates = make([]int, len(v.recs))
		for i := range v.recs {
			candidates[i] = i
		}
	}

	var matched []queryRec
	for _, i := range candidates {
		r := v.recs[i]
		if q.Domain != "" && r.Domain != strings.ToLower(q.Domain) {
			continue
		}
		if q.Sender != "" && r.Sender != strings.ToLower(q.Sender) {
			continue
		}
		if !q.Since.IsZero() && r.PostedAt.Before(q.Since) {
			continue
		}
		if !q.Until.IsZero() && !r.PostedAt.Before(q.Until) {
			continue
		}
		r.Campaign = v.campaignLocked(r)
		if q.Campaign != "" && r.Campaign != q.Campaign {
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
		matched = append(matched, r)
	}
	sort.Slice(matched, func(a, b int) bool {
		if !matched[a].PostedAt.Equal(matched[b].PostedAt) {
			return matched[a].PostedAt.Before(matched[b].PostedAt)
		}
		return matched[a].ID < matched[b].ID
	})
	res := ReportsResult{TotalMatched: len(matched)}
	if len(matched) > limit {
		matched = matched[:limit]
		last := matched[len(matched)-1]
		res.NextCursor = Cursor{PostedAt: last.PostedAt, ID: last.ID}.Encode()
	}
	res.Reports = matched
	res.Returned = len(matched)
	if res.Reports == nil {
		res.Reports = []queryRec{}
	}
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
		Campaigns: len(v.size),
	}
	s.TopDomains = topOf(v.byDomain, top)
	s.TopSenders = topOf(v.bySender, top)

	// Rank campaigns by their bare smallest record ID: every label is that
	// ID behind the same "c-", so the order is unchanged and only the rows
	// kept pay for building a label.
	camps := newLeaderboard(top, len(v.size))
	for root, n := range v.size {
		camps.offer(v.minID[root], n)
	}
	s.TopCampaigns = camps.rows
	for i := range s.TopCampaigns {
		s.TopCampaigns[i].Name = "c-" + s.TopCampaigns[i].Name
	}
	return s
}

func topOf(index map[string][]int, top int) []NameCount {
	lb := newLeaderboard(top, len(index))
	for name, idxs := range index {
		lb.offer(name, len(idxs))
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
