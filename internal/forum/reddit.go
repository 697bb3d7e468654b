package forum

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/smishkit/smishkit/internal/checkpoint"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/netutil"
)

// RedditServer speaks the listing JSON of Reddit's public search endpoint
// (§3.1.2): GET /search.json?q=...&limit=...&after=t3_<id>, with image
// posts linking to an /img/ URL. Posts may be appended while the server is
// live.
type RedditServer struct {
	timeline
	limiter *netutil.TokenBucket
}

// NewRedditServer seeds the server.
func NewRedditServer(posts []post, ratePerSec float64) *RedditServer {
	s := &RedditServer{}
	s.Append(posts)
	if ratePerSec > 0 {
		s.limiter = netutil.NewTokenBucket(int(ratePerSec*2)+1, ratePerSec)
	}
	return s
}

// Reddit wire types.
type redditListing struct {
	Kind string `json:"kind"`
	Data struct {
		After    string        `json:"after"`
		Children []redditChild `json:"children"`
	} `json:"data"`
}

type redditChild struct {
	Kind string     `json:"kind"`
	Data redditPost `json:"data"`
}

type redditPost struct {
	ID         string  `json:"id"`
	Title      string  `json:"title"`
	SelfText   string  `json:"selftext"`
	URL        string  `json:"url"`
	CreatedUTC float64 `json:"created_utc"`
	Subreddit  string  `json:"subreddit"`
}

// Handler returns the API routes.
func (s *RedditServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /search.json", s.handleSearch)
	mux.HandleFunc("GET /img/{id}", s.handleImage)
	return mux
}

func (s *RedditServer) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.limiter != nil && !s.limiter.Allow() {
		netutil.WriteRateLimited(w, s.limiter.RetryAfter(1))
		return
	}
	q := strings.ToLower(strings.Trim(r.URL.Query().Get("q"), `"`))
	if q == "" {
		netutil.WriteError(w, http.StatusBadRequest, "missing q")
		return
	}
	limit := 25
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && n <= 100 {
			limit = n
		}
	}

	s.mu.RLock()
	defer s.mu.RUnlock()

	start := 0
	if after := r.URL.Query().Get("after"); after != "" {
		start = s.startAfter(strings.TrimPrefix(after, "t3_"))
	}

	listing := redditListing{Kind: "Listing"}
	listing.Data.Children = []redditChild{}
	for i := start; i < len(s.posts); i++ {
		p := &s.posts[i]
		if !strings.Contains(strings.ToLower(p.Body), q) {
			continue
		}
		rp := redditPost{
			ID:         p.ID,
			Title:      firstSentence(p.Body),
			SelfText:   p.Body,
			CreatedUTC: float64(p.CreatedAt.Unix()),
			Subreddit:  p.Subreddit,
		}
		if len(p.Attachment) > 0 {
			rp.URL = "/img/" + p.ID
		}
		listing.Data.Children = append(listing.Data.Children, redditChild{Kind: "t3", Data: rp})
		if len(listing.Data.Children) == limit {
			listing.Data.After = "t3_" + p.ID
			break
		}
	}
	netutil.WriteJSON(w, http.StatusOK, listing)
}

func (s *RedditServer) handleImage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.RLock()
	defer s.mu.RUnlock()
	if img := s.attachment(id); len(img) > 0 {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(img)
		return
	}
	http.NotFound(w, r)
}

func firstSentence(s string) string {
	if i := strings.IndexAny(s, ".:!?"); i > 0 {
		return s[:i]
	}
	if len(s) > 80 {
		return s[:80]
	}
	return s
}

// RedditCollector drains the search endpoint for every keyword.
type RedditCollector struct {
	API      netutil.Client
	PageSize int
}

// NewRedditCollector builds a collector for the API at baseURL.
func NewRedditCollector(baseURL string) *RedditCollector {
	return &RedditCollector{API: netutil.Client{BaseURL: baseURL}, PageSize: 100}
}

// Name implements Collector.
func (c *RedditCollector) Name() corpus.Forum { return corpus.ForumReddit }

// Collect implements Collector: a full-history sync from a zero cursor.
func (c *RedditCollector) Collect(ctx ctxType, sink func(RawReport) error) error {
	_, err := c.CollectSince(ctx, checkpoint.Cursor{}, sink)
	return err
}

// CollectSince implements IncrementalCollector: each keyword resumes after
// the last listing child it consumed (after=t3_<id>) and pages forward.
//
// Pagination is keyed off children emptiness, not the `after` token: Reddit
// omits `after` on any page it considers final, including pages that still
// carry children (a mid-listing short page). The old loop treated an empty
// token as end-of-data and silently dropped everything behind such a page;
// now the collector only stops at a genuinely empty page and synthesizes
// the next position from the last child it saw. Each page's images
// download concurrently.
func (c *RedditCollector) CollectSince(ctx ctxType, cur checkpoint.Cursor, sink func(RawReport) error) (checkpoint.Cursor, error) {
	next := cur.Clone()
	next.Source = "reddit"
	seen := make(map[string]bool)
	limit := c.PageSize
	if limit <= 0 {
		limit = 100
	}
	for _, kw := range Keywords {
		last := cur.Token(kw)
		after := ""
		if last != "" {
			after = "t3_" + last
		}
		for {
			path := fmt.Sprintf("/search.json?q=%s&limit=%d", url.QueryEscape(kw), limit)
			if after != "" {
				path += "&after=" + url.QueryEscape(after)
			}
			var listing redditListing
			if err := c.API.GetJSON(ctx, path, &listing); err != nil {
				return cur, fmt.Errorf("forum: reddit search %q: %w", kw, err)
			}
			children := listing.Data.Children
			if len(children) == 0 {
				break
			}
			var reps []RawReport
			var paths []string
			for _, child := range children {
				p := child.Data
				if seen[p.ID] {
					continue
				}
				seen[p.ID] = true
				reps = append(reps, RawReport{
					Forum:    corpus.ForumReddit,
					PostID:   p.ID,
					PostedAt: unixTime(p.CreatedUTC),
					Body:     p.SelfText,
				})
				paths = append(paths, p.URL)
			}
			images, bad, err := fetchAttachments(ctx, &c.API, paths)
			if err != nil {
				return cur, fmt.Errorf("forum: reddit image %s: %w", reps[bad].PostID, err)
			}
			for i := range reps {
				reps[i].Attachment = images[i]
				if err := sink(reps[i]); err != nil {
					return cur, err
				}
			}
			last = children[len(children)-1].Data.ID
			if listing.Data.After != "" {
				after = listing.Data.After
			} else {
				after = "t3_" + last
			}
		}
		if last != "" {
			next.SetToken(kw, last)
		}
	}
	next.Updated = time.Now().UTC()
	return next, nil
}
