package forum

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// indexedServer is a forum server that resolves post IDs through its
// timeline index: resume is the search path that continues after a post
// (empty for Smishtank, whose API pages by offset) and ids lists the post
// IDs such a search returns.
type indexedServer struct {
	name       string
	build      func(posts []post) (http.Handler, func([]post))
	attachment func(id string) string
	resume     func(id string) string
	ids        func(t *testing.T, body []byte) []string
}

func indexedServers() []indexedServer {
	return []indexedServer{
		{
			name: "twitter",
			build: func(posts []post) (http.Handler, func([]post)) {
				s := NewTwitterServer(posts, "", 0)
				return s.Handler(), s.Append
			},
			attachment: func(id string) string { return "/2/media/m-" + id },
			resume: func(id string) string {
				return "/2/tweets/search/all?query=smishing&max_results=100&since_id=" + id
			},
			ids: func(t *testing.T, body []byte) []string {
				var resp searchResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("decode search: %v", err)
				}
				out := []string{}
				for _, tw := range resp.Data {
					out = append(out, tw.ID)
				}
				return out
			},
		},
		{
			name: "reddit",
			build: func(posts []post) (http.Handler, func([]post)) {
				s := NewRedditServer(posts, 0)
				return s.Handler(), s.Append
			},
			attachment: func(id string) string { return "/img/" + id },
			resume:     func(id string) string { return "/search.json?q=smishing&limit=100&after=t3_" + id },
			ids: func(t *testing.T, body []byte) []string {
				var listing redditListing
				if err := json.Unmarshal(body, &listing); err != nil {
					t.Fatalf("decode listing: %v", err)
				}
				out := []string{}
				for _, c := range listing.Data.Children {
					out = append(out, c.Data.ID)
				}
				return out
			},
		},
		{
			name: "smishtank",
			build: func(posts []post) (http.Handler, func([]post)) {
				s := NewSmishtankServer(posts)
				return s.Handler(), s.Append
			},
			attachment: func(id string) string { return "/screenshots/" + id },
		},
	}
}

// timelinePost is a keyword-matching post with attachment att ("" for
// none), n minutes into the timeline.
func timelinePost(id string, n int, att string) post {
	p := post{
		ID:        id,
		CreatedAt: time.Date(2026, 4, 1, 0, n, 0, 0, time.UTC),
		Body:      "smishing report " + id,
		SMSText:   "text " + id,
	}
	if att != "" {
		p.Attachment = []byte(att)
	}
	return p
}

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestTimelineIndexLookups pins how the servers resolve post IDs: resume
// points and attachments of posts published after the server was built,
// unknown resume points, duplicated IDs and unknown attachment keys.
func TestTimelineIndexLookups(t *testing.T) {
	for _, tc := range indexedServers() {
		t.Run(tc.name, func(t *testing.T) {
			h, publish := tc.build([]post{
				timelinePost("p0", 0, "img-p0"),
				timelinePost("dup", 1, "img-dup-first"),
				timelinePost("p2", 2, ""),
			})
			// Append sorts its batch chronologically: p4 lands before dup.
			publish([]post{
				timelinePost("dup", 5, "img-dup-second"),
				timelinePost("p4", 4, "img-p4"),
				timelinePost("p6", 6, "img-p6"),
			})
			srv := httptest.NewServer(h)
			defer srv.Close()

			attachments := []struct {
				id, want string
				status   int
			}{
				{"p4", "img-p4", http.StatusOK},         // published by Append
				{"p6", "img-p6", http.StatusOK},         // published by Append
				{"dup", "img-dup-first", http.StatusOK}, // first occurrence wins
				{"p2", "", http.StatusNotFound},         // post without attachment
				{"nope", "", http.StatusNotFound},       // unknown key
			}
			for _, a := range attachments {
				status, body := get(t, srv, tc.attachment(a.id))
				if status != a.status || (a.status == http.StatusOK && string(body) != a.want) {
					t.Errorf("attachment %s = %d %q, want %d %q", a.id, status, body, a.status, a.want)
				}
			}

			if tc.resume == nil {
				return
			}
			resumes := []struct {
				after string
				want  []string
			}{
				{"p4", []string{"dup", "p6"}},                            // resume point published by Append
				{"dup", []string{"p2", "p4", "dup", "p6"}},               // after the first occurrence
				{"p6", []string{}},                                       // caught up
				{"nope", []string{"p0", "dup", "p2", "p4", "dup", "p6"}}, // unknown: from the beginning
			}
			for _, r := range resumes {
				status, body := get(t, srv, tc.resume(r.after))
				if status != http.StatusOK {
					t.Fatalf("resume after %s: status %d", r.after, status)
				}
				if got := tc.ids(t, body); !reflect.DeepEqual(got, r.want) {
					t.Errorf("resume after %s = %v, want %v", r.after, got, r.want)
				}
			}
		})
	}
}
