package forum

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/smishkit/smishkit/internal/checkpoint"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/netutil"
)

// TwitterServer speaks a faithful subset of the v2 full-archive search API
// the paper used through the Academic track (§3.1.1): Bearer-token auth,
// next_token pagination, since_id incremental queries, media expansion via
// includes, and rate limiting. Posts may be appended while the server is
// live (the daemon's continuously-arriving report stream).
type TwitterServer struct {
	timeline
	bearer  string
	limiter *netutil.TokenBucket
}

// NewTwitterServer seeds the server. ratePerSec <= 0 disables limiting.
func NewTwitterServer(posts []post, bearer string, ratePerSec float64) *TwitterServer {
	s := &TwitterServer{bearer: bearer}
	s.Append(posts)
	if ratePerSec > 0 {
		s.limiter = netutil.NewTokenBucket(int(ratePerSec*2)+1, ratePerSec)
	}
	return s
}

// Twitter API wire types (subset).
type tweetObject struct {
	ID          string            `json:"id"`
	Text        string            `json:"text"`
	CreatedAt   time.Time         `json:"created_at"`
	Attachments *tweetAttachments `json:"attachments,omitempty"`
}

type tweetAttachments struct {
	MediaKeys []string `json:"media_keys"`
}

type mediaObject struct {
	MediaKey string `json:"media_key"`
	Type     string `json:"type"`
	URL      string `json:"url"`
}

type searchResponse struct {
	Data     []tweetObject `json:"data"`
	Includes struct {
		Media []mediaObject `json:"media,omitempty"`
	} `json:"includes"`
	Meta struct {
		ResultCount int    `json:"result_count"`
		NextToken   string `json:"next_token,omitempty"`
	} `json:"meta"`
}

// Handler returns the API routes.
func (s *TwitterServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /2/tweets/search/all", s.handleSearch)
	mux.HandleFunc("GET /2/media/{key}", s.handleMedia)
	return mux
}

func (s *TwitterServer) authorized(r *http.Request) bool {
	if s.bearer == "" {
		return true
	}
	return r.Header.Get("Authorization") == "Bearer "+s.bearer
}

func (s *TwitterServer) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(r) {
		netutil.WriteError(w, http.StatusUnauthorized, "invalid bearer token")
		return
	}
	if s.limiter != nil && !s.limiter.Allow() {
		netutil.WriteRateLimited(w, s.limiter.RetryAfter(1))
		return
	}
	query := strings.ToLower(r.URL.Query().Get("query"))
	if query == "" {
		netutil.WriteError(w, http.StatusBadRequest, "missing query")
		return
	}
	query = strings.Trim(query, `"`)
	maxResults := 10
	if v := r.URL.Query().Get("max_results"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 10 && n <= 500 {
			maxResults = n
		}
	}

	s.mu.RLock()
	defer s.mu.RUnlock()

	// since_id restricts the search to tweets after the given ID — the v2
	// incremental-sync contract. Position-based: posts are append-only in
	// chronological order, so "after this ID" is "after its index".
	start := 0
	if sid := r.URL.Query().Get("since_id"); sid != "" {
		start = s.startAfter(sid)
	}
	if tok := r.URL.Query().Get("next_token"); tok != "" {
		n, err := strconv.Atoi(strings.TrimPrefix(tok, "pg-"))
		if err != nil {
			netutil.WriteError(w, http.StatusBadRequest, "bad next_token")
			return
		}
		if n > start {
			start = n
		}
	}

	var resp searchResponse
	resp.Data = []tweetObject{} // v2 returns an empty array, not null
	matched := 0
	for i := start; i < len(s.posts); i++ {
		p := &s.posts[i]
		if !strings.Contains(strings.ToLower(p.Body), query) {
			continue
		}
		matched++
		tw := tweetObject{ID: p.ID, Text: p.Body, CreatedAt: p.CreatedAt}
		if len(p.Attachment) > 0 {
			key := "m-" + p.ID
			tw.Attachments = &tweetAttachments{MediaKeys: []string{key}}
			resp.Includes.Media = append(resp.Includes.Media, mediaObject{
				MediaKey: key, Type: "photo", URL: "/2/media/" + key,
			})
		}
		resp.Data = append(resp.Data, tw)
		if matched == maxResults {
			if i+1 < len(s.posts) {
				resp.Meta.NextToken = fmt.Sprintf("pg-%d", i+1)
			}
			break
		}
	}
	resp.Meta.ResultCount = len(resp.Data)
	netutil.WriteJSON(w, http.StatusOK, resp)
}

func (s *TwitterServer) handleMedia(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(r) {
		netutil.WriteError(w, http.StatusUnauthorized, "invalid bearer token")
		return
	}
	key := strings.TrimPrefix(r.PathValue("key"), "m-")
	s.mu.RLock()
	defer s.mu.RUnlock()
	if media := s.attachment(key); len(media) > 0 {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(media)
		return
	}
	http.NotFound(w, r)
}

// TwitterCollector drains the search API across all keywords.
type TwitterCollector struct {
	API      netutil.Client
	Bearer   string
	PageSize int // default 100
}

// NewTwitterCollector builds a collector for the API at baseURL.
func NewTwitterCollector(baseURL, bearer string) *TwitterCollector {
	c := &TwitterCollector{Bearer: bearer, PageSize: 100}
	c.API = netutil.Client{
		BaseURL: baseURL,
		Headers: map[string]string{"Authorization": "Bearer " + bearer},
	}
	return c
}

// Name implements Collector.
func (c *TwitterCollector) Name() corpus.Forum { return corpus.ForumTwitter }

// Collect implements Collector: a full-history sync from a zero cursor.
func (c *TwitterCollector) Collect(ctx ctxType, sink func(RawReport) error) error {
	_, err := c.CollectSince(ctx, checkpoint.Cursor{}, sink)
	return err
}

// CollectSince implements IncrementalCollector: each keyword resumes from
// its stored since_id (the newest tweet ID fully consumed for that
// keyword), follows next_token pagination within the round, downloads
// each page's media concurrently, and deduplicates across keywords.
// Cross-round dedup falls out of the since_id contract: a tweet matching
// several keywords is covered by every one of their cursors after the
// round it appeared in.
func (c *TwitterCollector) CollectSince(ctx ctxType, cur checkpoint.Cursor, sink func(RawReport) error) (checkpoint.Cursor, error) {
	next := cur.Clone()
	next.Source = "twitter"
	seen := make(map[string]bool)
	size := c.PageSize
	if size <= 0 {
		size = 100
	}
	for _, kw := range Keywords {
		sinceID := cur.Token(kw)
		newest := sinceID
		pageTok := ""
		for {
			path := fmt.Sprintf("/2/tweets/search/all?query=%s&max_results=%d",
				strings.ReplaceAll(kw, " ", "%20"), size)
			if sinceID != "" {
				path += "&since_id=" + sinceID
			}
			if pageTok != "" {
				path += "&next_token=" + pageTok
			}
			var resp searchResponse
			if err := c.API.GetJSON(ctx, path, &resp); err != nil {
				return cur, fmt.Errorf("forum: twitter search %q: %w", kw, err)
			}
			mediaByKey := make(map[string]string, len(resp.Includes.Media))
			for _, m := range resp.Includes.Media {
				mediaByKey[m.MediaKey] = m.URL
			}
			var reps []RawReport
			var keys, paths []string
			for _, tw := range resp.Data {
				// Results arrive oldest-first, so the last tweet of the last
				// page is the keyword's new high-water mark.
				newest = tw.ID
				if seen[tw.ID] {
					continue
				}
				seen[tw.ID] = true
				reps = append(reps, RawReport{
					Forum:    corpus.ForumTwitter,
					PostID:   tw.ID,
					PostedAt: tw.CreatedAt,
					Body:     tw.Text,
				})
				// A report carries one attachment: the tweet's last media
				// key the response expands.
				key, path := "", ""
				if tw.Attachments != nil {
					for _, k := range tw.Attachments.MediaKeys {
						if url, ok := mediaByKey[k]; ok {
							key, path = k, url
						}
					}
				}
				keys = append(keys, key)
				paths = append(paths, path)
			}
			media, bad, err := fetchAttachments(ctx, &c.API, paths)
			if err != nil {
				return cur, fmt.Errorf("forum: twitter media %s: %w", keys[bad], err)
			}
			for i := range reps {
				reps[i].Attachment = media[i]
				if err := sink(reps[i]); err != nil {
					return cur, err
				}
			}
			if resp.Meta.NextToken == "" {
				break
			}
			pageTok = resp.Meta.NextToken
		}
		if newest != "" {
			next.SetToken(kw, newest)
		}
	}
	next.Updated = time.Now().UTC()
	return next, nil
}
