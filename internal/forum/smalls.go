package forum

import (
	"fmt"
	"html"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/checkpoint"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/netutil"
)

func unixTime(sec float64) time.Time { return time.Unix(int64(sec), 0).UTC() }

// --- Smishtank (§3.1.5): JSON submissions API + screenshots ---

// SmishtankServer serves the crowdsourced submission list. Posts may be
// appended while the server is live; the offset-paginated API stays
// consistent because appends only extend the tail.
type SmishtankServer struct {
	timeline
}

// NewSmishtankServer seeds the server.
func NewSmishtankServer(posts []post) *SmishtankServer {
	s := &SmishtankServer{}
	s.Append(posts)
	return s
}

type smishtankSubmission struct {
	ID         string `json:"id"`
	Submitted  string `json:"submitted_at"`
	Sender     string `json:"sender"`
	Text       string `json:"text"`
	Timestamp  string `json:"sms_timestamp,omitempty"`
	Screenshot string `json:"screenshot,omitempty"` // path
}

type smishtankPage struct {
	Submissions []smishtankSubmission `json:"submissions"`
	Total       int                   `json:"total"`
	Offset      int                   `json:"offset"`
}

// Handler returns the API routes.
func (s *SmishtankServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/submissions", func(w http.ResponseWriter, r *http.Request) {
		offset, _ := strconv.Atoi(r.URL.Query().Get("offset"))
		limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
		if limit <= 0 || limit > 200 {
			limit = 50
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		if offset < 0 || offset > len(s.posts) {
			offset = len(s.posts)
		}
		page := smishtankPage{Total: len(s.posts), Offset: offset, Submissions: []smishtankSubmission{}}
		for i := offset; i < len(s.posts) && len(page.Submissions) < limit; i++ {
			p := &s.posts[i]
			sub := smishtankSubmission{
				ID:        p.ID,
				Submitted: p.CreatedAt.Format(time.RFC3339),
				Sender:    p.SenderID,
				Text:      p.SMSText,
				Timestamp: p.Timestamp,
			}
			if len(p.Attachment) > 0 {
				sub.Screenshot = "/screenshots/" + p.ID
			}
			page.Submissions = append(page.Submissions, sub)
		}
		netutil.WriteJSON(w, http.StatusOK, page)
	})
	mux.HandleFunc("GET /screenshots/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.RLock()
		defer s.mu.RUnlock()
		if shot := s.attachment(id); len(shot) > 0 {
			_, _ = w.Write(shot)
			return
		}
		http.NotFound(w, r)
	})
	return mux
}

// SmishtankCollector pages through the submission API.
type SmishtankCollector struct {
	API netutil.Client
}

// NewSmishtankCollector builds a collector for the API at baseURL.
func NewSmishtankCollector(baseURL string) *SmishtankCollector {
	return &SmishtankCollector{API: netutil.Client{BaseURL: baseURL}}
}

// Name implements Collector.
func (c *SmishtankCollector) Name() corpus.Forum { return corpus.ForumSmishtank }

// Collect implements Collector: a full-history sync from a zero cursor.
func (c *SmishtankCollector) Collect(ctx ctxType, sink func(RawReport) error) error {
	_, err := c.CollectSince(ctx, checkpoint.Cursor{}, sink)
	return err
}

// CollectSince implements IncrementalCollector: Cursor.Offset counts the
// submissions already consumed, which is exactly the API's own offset
// parameter — the submission list is append-only. Each page's screenshots
// download concurrently.
func (c *SmishtankCollector) CollectSince(ctx ctxType, cur checkpoint.Cursor, sink func(RawReport) error) (checkpoint.Cursor, error) {
	next := cur.Clone()
	next.Source = "smishtank"
	offset := cur.Offset
	for {
		var page smishtankPage
		if err := c.API.GetJSON(ctx, fmt.Sprintf("/api/submissions?offset=%d&limit=100", offset), &page); err != nil {
			return cur, fmt.Errorf("forum: smishtank page %d: %w", offset, err)
		}
		paths := make([]string, len(page.Submissions))
		for i, sub := range page.Submissions {
			paths[i] = sub.Screenshot
		}
		shots, bad, err := fetchAttachments(ctx, &c.API, paths)
		if err != nil {
			return cur, fmt.Errorf("forum: smishtank screenshot %s: %w", page.Submissions[bad].ID, err)
		}
		for i, sub := range page.Submissions {
			posted, _ := time.Parse(time.RFC3339, sub.Submitted)
			rep := RawReport{
				Forum:      corpus.ForumSmishtank,
				PostID:     sub.ID,
				PostedAt:   posted,
				SMSText:    sub.Text,
				SenderID:   sub.Sender,
				Timestamp:  sub.Timestamp,
				Attachment: shots[i],
			}
			if err := sink(rep); err != nil {
				return cur, err
			}
		}
		offset += len(page.Submissions)
		if len(page.Submissions) == 0 || offset >= page.Total {
			break
		}
	}
	next.Offset = offset
	next.Updated = time.Now().UTC()
	return next, nil
}

// --- Smishing.eu (§3.1.3): HTML report tables, scraped weekly ---

// smishingEUPageSize is the server's fixed rows-per-page; the collector
// relies on it to convert its consumed-row cursor into a page + skip.
const smishingEUPageSize = 25

// SmishingEUServer renders paginated HTML tables of user reports. Posts
// may be appended while the server is live; rows only ever extend the last
// page, so earlier page contents are stable.
type SmishingEUServer struct {
	mu       sync.RWMutex
	posts    []post
	pageSize int
}

// NewSmishingEUServer seeds the server.
func NewSmishingEUServer(posts []post) *SmishingEUServer {
	sorted := make([]post, len(posts))
	copy(sorted, posts)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].CreatedAt.Before(sorted[j].CreatedAt) })
	return &SmishingEUServer{posts: sorted, pageSize: smishingEUPageSize}
}

// Append publishes new report rows at the tail. Batches must be
// chronologically at-or-after the existing posts.
func (s *SmishingEUServer) Append(posts []post) {
	batch := make([]post, len(posts))
	copy(batch, posts)
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].CreatedAt.Before(batch[j].CreatedAt) })
	s.mu.Lock()
	s.posts = append(s.posts, batch...)
	s.mu.Unlock()
}

// Handler returns the web routes.
func (s *SmishingEUServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /reports", func(w http.ResponseWriter, r *http.Request) {
		page, _ := strconv.Atoi(r.URL.Query().Get("page"))
		if page < 1 {
			page = 1
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		start := (page - 1) * s.pageSize
		end := start + s.pageSize
		if start > len(s.posts) {
			start = len(s.posts)
		}
		if end > len(s.posts) {
			end = len(s.posts)
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<html><body><h1>Reported smishing</h1><table id=\"reports\">\n")
		fmt.Fprint(w, "<tr><th>Date</th><th>Country</th><th>Sender</th><th>Brand</th><th>Message</th></tr>\n")
		for _, p := range s.posts[start:end] {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				html.EscapeString(p.Timestamp), html.EscapeString(p.Country),
				html.EscapeString(p.SenderID), html.EscapeString(p.Brand),
				html.EscapeString(p.SMSText))
		}
		fmt.Fprint(w, "</table>")
		if end < len(s.posts) {
			fmt.Fprintf(w, `<a href="/reports?page=%d" rel="next">older</a>`, page+1)
		}
		fmt.Fprint(w, "</body></html>")
	})
	return mux
}

// euRow locates one report-table row in a page: doc[start:end] is the
// whole row and cut[k] is where cell k ends (at its "</td>").
type euRow struct {
	start, end int
	cut        [5]int
}

const (
	euRowOpen  = "<tr><td>"
	euCellSep  = "</td><td>"
	euRowClose = "</td></tr>"
)

// nextEURow finds the first report row that starts at or after from. A
// row is "<tr><td>", then five cells, each ending at the first
// "</td><td>" after it starts (the fifth at the first "</td></tr>"), all
// on one line. That is exactly what the lazy pattern
// <tr><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td></tr>
// matches, without a regexp or a substring per cell. The header row
// ("<tr><th>") never opens one. When the first "<tr><td>" found does not
// complete a row, no later start on its line can, so the search goes on
// from the next line.
func nextEURow(doc string, from int) (euRow, bool) {
	for from < len(doc) {
		i := strings.Index(doc[from:], euRowOpen)
		if i < 0 {
			break
		}
		r := euRow{start: from + i}
		eol := len(doc)
		if j := strings.IndexByte(doc[r.start:], '\n'); j >= 0 {
			eol = r.start + j
		}
		at := r.start + len(euRowOpen)
		for k := range r.cut {
			sep := euCellSep
			if k == len(r.cut)-1 {
				sep = euRowClose
			}
			j := strings.Index(doc[at:eol], sep)
			if j < 0 {
				at = -1
				break
			}
			r.cut[k] = at + j
			at += j + len(sep)
		}
		if at >= 0 {
			r.end = at
			return r, true
		}
		from = eol + 1
	}
	return euRow{}, false
}

// cell returns cell k of r, still HTML-escaped.
func (r euRow) cell(doc string, k int) string {
	begin := r.start + len(euRowOpen)
	if k > 0 {
		begin = r.cut[k-1] + len(euCellSep)
	}
	return doc[begin:r.cut[k]]
}

// SmishingEUCollector scrapes the HTML tables page by page — the paper's
// custom weekly scraper (§3.1.3).
type SmishingEUCollector struct {
	API netutil.Client
}

// NewSmishingEUCollector builds a scraper for the site at baseURL.
func NewSmishingEUCollector(baseURL string) *SmishingEUCollector {
	return &SmishingEUCollector{API: netutil.Client{BaseURL: baseURL}}
}

// Name implements Collector.
func (c *SmishingEUCollector) Name() corpus.Forum { return corpus.ForumSmishingEU }

// Collect implements Collector: a full-history sync from a zero cursor.
func (c *SmishingEUCollector) Collect(ctx ctxType, sink func(RawReport) error) error {
	_, err := c.CollectSince(ctx, checkpoint.Cursor{}, sink)
	return err
}

// CollectSince implements IncrementalCollector: Cursor.Offset counts table
// rows consumed across all pages. Resume lands on page offset/25+1 and
// skips the rows already scraped there (new rows only ever extend the last
// page). PostIDs are derived from the global row position, so a row keeps
// the same ID whether it was scraped in one sweep or across many.
func (c *SmishingEUCollector) CollectSince(ctx ctxType, cur checkpoint.Cursor, sink func(RawReport) error) (checkpoint.Cursor, error) {
	next := cur.Clone()
	next.Source = "smishing.eu"
	offset := cur.Offset
	for {
		page := offset/smishingEUPageSize + 1
		skip := offset % smishingEUPageSize
		body, err := c.API.GetBytes(ctx, fmt.Sprintf("/reports?page=%d", page))
		if err != nil {
			return cur, fmt.Errorf("forum: smishing.eu page %d: %w", page, err)
		}
		doc := string(body)
		// Rows before skip were scraped in an earlier round: they are
		// located, to keep the row count, but their cells are never read.
		for i, from := 0, 0; ; i++ {
			row, ok := nextEURow(doc, from)
			if !ok {
				break
			}
			from = row.end
			if i < skip {
				continue
			}
			date, country, sender, brand, msg := row.cell(doc, 0), row.cell(doc, 1), row.cell(doc, 2), row.cell(doc, 3), row.cell(doc, 4)
			if date == "Date" || strings.Contains(doc[row.start:row.end], "<th>") {
				continue
			}
			rep := RawReport{
				Forum:     corpus.ForumSmishingEU,
				PostID:    fmt.Sprintf("smishing.eu-p%d-r%d", page, i+1),
				SMSText:   html.UnescapeString(msg),
				SenderID:  html.UnescapeString(sender),
				Timestamp: date,
				Brand:     html.UnescapeString(brand),
				Country:   country,
			}
			if t, err := time.Parse("2006-01-02", date); err == nil {
				rep.PostedAt = t
			}
			if err := sink(rep); err != nil {
				return cur, err
			}
			offset++
		}
		if !strings.Contains(doc, `rel="next"`) {
			break
		}
	}
	next.Offset = offset
	next.Updated = time.Now().UTC()
	return next, nil
}

// --- Pastebin (§3.1.4): analyst pastes, one smish per line ---

// PastebinServer serves an archive listing and raw pastes. Each paste packs
// several reports as "sender | date | message" lines, the format of the
// abuseipdb-mirroring analyst the paper found. Pastes are immutable once
// published: Append always opens new pastes, never extends existing ones,
// so a consumed paste ID is a safe resume point.
type PastebinServer struct {
	mu     sync.RWMutex
	pastes map[string][]post
	order  []string
	seq    int // pastes created so far, drives ID allocation
}

// NewPastebinServer groups posts into pastes of up to 10 reports.
func NewPastebinServer(posts []post) *PastebinServer {
	s := &PastebinServer{pastes: make(map[string][]post)}
	s.Append(posts)
	return s
}

// Append publishes new posts as fresh pastes of up to 10 reports each.
func (s *PastebinServer) Append(posts []post) {
	sorted := make([]post, len(posts))
	copy(sorted, posts)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].CreatedAt.Before(sorted[j].CreatedAt) })
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < len(sorted); i += 10 {
		end := i + 10
		if end > len(sorted) {
			end = len(sorted)
		}
		s.seq++
		id := fmt.Sprintf("p%06x", s.seq)
		s.pastes[id] = sorted[i:end]
		s.order = append(s.order, id)
	}
}

// Handler returns the web routes.
func (s *PastebinServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /archive", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.mu.RLock()
		defer s.mu.RUnlock()
		for _, id := range s.order {
			fmt.Fprintln(w, id)
		}
	})
	mux.HandleFunc("GET /raw/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		posts, ok := s.pastes[r.PathValue("id")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, p := range posts {
			msg := strings.ReplaceAll(p.SMSText, "|", "/")
			fmt.Fprintf(w, "%s | %s | %s\n", p.SenderID, p.Timestamp, msg)
		}
	})
	return mux
}

// PastebinCollector lists the archive and parses each paste.
type PastebinCollector struct {
	API netutil.Client
}

// NewPastebinCollector builds a collector for the site at baseURL.
func NewPastebinCollector(baseURL string) *PastebinCollector {
	return &PastebinCollector{API: netutil.Client{BaseURL: baseURL}}
}

// Name implements Collector.
func (c *PastebinCollector) Name() corpus.Forum { return corpus.ForumPastebin }

// Collect implements Collector: a full-history sync from a zero cursor.
func (c *PastebinCollector) Collect(ctx ctxType, sink func(RawReport) error) error {
	_, err := c.CollectSince(ctx, checkpoint.Cursor{}, sink)
	return err
}

// CollectSince implements IncrementalCollector: Cursor.LastID is the last
// fully-consumed paste in archive order; the archive is append-only and
// pastes are immutable, so everything after it is new.
func (c *PastebinCollector) CollectSince(ctx ctxType, cur checkpoint.Cursor, sink func(RawReport) error) (checkpoint.Cursor, error) {
	next := cur.Clone()
	next.Source = "pastebin"
	index, err := c.API.GetBytes(ctx, "/archive")
	if err != nil {
		return cur, fmt.Errorf("forum: pastebin archive: %w", err)
	}
	ids := strings.Fields(string(index))
	start := 0
	if cur.LastID != "" {
		found := false
		for i, id := range ids {
			if id == cur.LastID {
				start = i + 1
				found = true
				break
			}
		}
		// LastID absent from the archive (e.g. the site regrouped old pastes):
		// paste IDs are sequential and zero-padded, so skip everything issued
		// at or before the cursor rather than rescanning from the top.
		if !found {
			for start < len(ids) && ids[start] <= cur.LastID {
				start++
			}
		}
	}
	last := cur.LastID
	for _, id := range ids[start:] {
		body, err := c.API.GetBytes(ctx, "/raw/"+id)
		if err != nil {
			return cur, fmt.Errorf("forum: pastebin paste %s: %w", id, err)
		}
		for n, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			parts := strings.SplitN(line, " | ", 3)
			if len(parts) != 3 {
				continue // truncated line: skip, don't abort the paste
			}
			rep := RawReport{
				Forum:     corpus.ForumPastebin,
				PostID:    fmt.Sprintf("%s-%d", id, n),
				SMSText:   parts[2],
				SenderID:  parts[0],
				Timestamp: parts[1],
			}
			if t, err := time.Parse("2006-01-02", parts[1]); err == nil {
				rep.PostedAt = t
			}
			if err := sink(rep); err != nil {
				return cur, err
			}
		}
		last = id
	}
	next.LastID = last
	next.Updated = time.Now().UTC()
	return next, nil
}
