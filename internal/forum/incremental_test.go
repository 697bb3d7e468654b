package forum

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/checkpoint"
	"github.com/smishkit/smishkit/internal/netutil"
)

// fingerprint identifies a report by content, not PostID: pastebin paste
// grouping (and thus PostIDs) legitimately differs between a one-shot seed
// and an initial+waves seed, but the reported content must not.
func fingerprint(r RawReport) string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|%d", r.Forum, r.Body, r.SMSText, r.SenderID, r.Timestamp, len(r.Attachment))
}

func collectSince(t *testing.T, c IncrementalCollector, cur checkpoint.Cursor) (checkpoint.Cursor, []RawReport) {
	t.Helper()
	var got []RawReport
	next, err := c.CollectSince(context.Background(), cur, func(r RawReport) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("CollectSince(%s): %v", c.Name(), err)
	}
	return next, got
}

// TestIncrementalCollectorsRoundTrip drives every collector through the
// daemon's life cycle: full sync from a zero cursor, two append+resync
// rounds, and an idle round — asserting the union of the incremental
// rounds equals a one-shot drain of the fully-seeded forum, with no report
// delivered twice.
func TestIncrementalCollectorsRoundTrip(t *testing.T) {
	w := testWorld(t, 2000)
	full := BuildFixtures(w)
	initial, waves := SplitFixtures(full, 0.5, 2)

	cases := []struct {
		name string
		boot func(seed *Fixtures) (http.Handler, func(base string) IncrementalCollector, func(wave *Fixtures))
	}{
		{"twitter", func(seed *Fixtures) (http.Handler, func(string) IncrementalCollector, func(*Fixtures)) {
			s := NewTwitterServer(seed.Twitter, "b", 0)
			return s.Handler(),
				func(base string) IncrementalCollector { return NewTwitterCollector(base, "b") },
				func(wv *Fixtures) { s.Append(wv.Twitter) }
		}},
		{"reddit", func(seed *Fixtures) (http.Handler, func(string) IncrementalCollector, func(*Fixtures)) {
			s := NewRedditServer(seed.Reddit, 0)
			return s.Handler(),
				func(base string) IncrementalCollector { return NewRedditCollector(base) },
				func(wv *Fixtures) { s.Append(wv.Reddit) }
		}},
		{"smishtank", func(seed *Fixtures) (http.Handler, func(string) IncrementalCollector, func(*Fixtures)) {
			s := NewSmishtankServer(seed.Smishtank)
			return s.Handler(),
				func(base string) IncrementalCollector { return NewSmishtankCollector(base) },
				func(wv *Fixtures) { s.Append(wv.Smishtank) }
		}},
		{"smishing.eu", func(seed *Fixtures) (http.Handler, func(string) IncrementalCollector, func(*Fixtures)) {
			s := NewSmishingEUServer(seed.SmishingEU)
			return s.Handler(),
				func(base string) IncrementalCollector { return NewSmishingEUCollector(base) },
				func(wv *Fixtures) { s.Append(wv.SmishingEU) }
		}},
		{"pastebin", func(seed *Fixtures) (http.Handler, func(string) IncrementalCollector, func(*Fixtures)) {
			s := NewPastebinServer(seed.Pastebin)
			return s.Handler(),
				func(base string) IncrementalCollector { return NewPastebinCollector(base) },
				func(wv *Fixtures) { s.Append(wv.Pastebin) }
		}},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// Reference: one-shot drain of a forum seeded with everything.
			refHandler, mkColl, _ := tc.boot(full)
			refSrv := httptest.NewServer(refHandler)
			defer refSrv.Close()
			_, want := collectSince(t, mkColl(refSrv.URL), checkpoint.Cursor{})

			// Live forum: initial backlog, then one wave per round.
			liveHandler, mkColl2, appendWave := tc.boot(initial)
			liveSrv := httptest.NewServer(liveHandler)
			defer liveSrv.Close()
			coll := mkColl2(liveSrv.URL)

			counts := make(map[string]int)
			cur, got := collectSince(t, coll, checkpoint.Cursor{})
			if cur.Updated.IsZero() {
				t.Fatal("successful sync did not stamp Updated")
			}
			for _, r := range got {
				counts[fingerprint(r)]++
			}
			for _, wv := range waves {
				appendWave(wv)
				var round []RawReport
				cur, round = collectSince(t, coll, cur)
				if len(round) == 0 {
					t.Fatal("wave produced no new reports")
				}
				for _, r := range round {
					counts[fingerprint(r)]++
				}
			}
			// Idle round: nothing new, but the cursor still advances Updated.
			idleCur, idle := collectSince(t, coll, cur)
			if len(idle) != 0 {
				t.Fatalf("idle round re-delivered %d reports", len(idle))
			}
			if idleCur.Updated.Before(cur.Updated) {
				t.Fatal("idle sync regressed Updated")
			}

			wantCounts := make(map[string]int)
			for _, r := range want {
				wantCounts[fingerprint(r)]++
			}
			if len(counts) != len(wantCounts) {
				t.Fatalf("incremental union has %d distinct reports, one-shot %d", len(counts), len(wantCounts))
			}
			for fp, n := range wantCounts {
				if counts[fp] != n {
					t.Fatalf("report %.80q: incremental saw %d, one-shot %d", fp, counts[fp], n)
				}
			}
		})
	}
}

// TestRedditEmptyAfterMidListing pins the pagination bugfix: Reddit may
// omit the `after` token on a page that still carries children (a
// mid-listing short page). The collector must keep paging off the last
// child it saw and stop only at a genuinely empty page.
func TestRedditEmptyAfterMidListing(t *testing.T) {
	pages := map[string]redditListing{}
	mk := func(after string, ids ...string) redditListing {
		var l redditListing
		l.Kind = "Listing"
		l.Data.After = after
		l.Data.Children = []redditChild{}
		for _, id := range ids {
			l.Data.Children = append(l.Data.Children, redditChild{
				Kind: "t3",
				Data: redditPost{ID: id, SelfText: "smishing report " + id},
			})
		}
		return l
	}
	// Page 1 has children but NO after token — the buggy collector stopped
	// here and silently dropped c.
	pages[""] = mk("", "a", "b")
	pages["t3_b"] = mk("", "c")
	pages["t3_c"] = mk("")

	requests := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		l, ok := pages[r.URL.Query().Get("after")]
		if !ok {
			l = mk("")
		}
		netutil.WriteJSON(w, http.StatusOK, l)
	}))
	defer srv.Close()

	c := NewRedditCollector(srv.URL)
	var got []string
	seen := map[string]bool{}
	cur, err := c.CollectSince(context.Background(), checkpoint.Cursor{}, func(r RawReport) error {
		if !seen[r.PostID] {
			seen[r.PostID] = true
			got = append(got, r.PostID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("collected %v, want [a b c]: empty after mid-listing truncated the drain", got)
	}
	// Every keyword's cursor must land on the last child actually consumed.
	for _, kw := range Keywords {
		if cur.Token(kw) != "c" {
			t.Fatalf("keyword %q cursor = %q, want c", kw, cur.Token(kw))
		}
	}
	// One extra (empty) request per keyword is the price of correctness;
	// anything beyond 3 pages per keyword means the loop failed to stop.
	if requests > 3*len(Keywords) {
		t.Fatalf("%d requests for %d keywords: pagination did not terminate promptly", requests, len(Keywords))
	}
}

// attachmentCase is a collector that downloads attachments through
// fetchAttachments, with the path prefix its server serves them under.
type attachmentCase struct {
	name, prefix string
	posts        []post
	handler      http.Handler
	collector    func(base string) IncrementalCollector
}

func attachmentCollectors(f *Fixtures) []attachmentCase {
	return []attachmentCase{
		{"twitter", "/2/media/", f.Twitter, NewTwitterServer(f.Twitter, "b", 0).Handler(),
			func(base string) IncrementalCollector { return NewTwitterCollector(base, "b") }},
		{"reddit", "/img/", f.Reddit, NewRedditServer(f.Reddit, 0).Handler(),
			func(base string) IncrementalCollector { return NewRedditCollector(base) }},
		{"smishtank", "/screenshots/", f.Smishtank, NewSmishtankServer(f.Smishtank).Handler(),
			func(base string) IncrementalCollector { return NewSmishtankCollector(base) }},
	}
}

// TestCollectSinceErrorKeepsCursor pins the atomicity contract: a failed
// round returns the input cursor untouched so callers never commit a
// half-synced position — whether the sink fails or an attachment download
// does.
func TestCollectSinceErrorKeepsCursor(t *testing.T) {
	w := testWorld(t, 600)
	f := BuildFixtures(w)

	t.Run("sink", func(t *testing.T) {
		srv := httptest.NewServer(NewSmishtankServer(f.Smishtank).Handler())
		defer srv.Close()
		c := NewSmishtankCollector(srv.URL)
		in := checkpoint.Cursor{Source: "smishtank", Offset: 1}
		boom := fmt.Errorf("sink exploded")
		out, err := c.CollectSince(context.Background(), in, func(RawReport) error { return boom })
		if err == nil {
			t.Fatal("sink error not propagated")
		}
		if out.Offset != in.Offset || !out.Updated.Equal(in.Updated) {
			t.Fatalf("failed round advanced the cursor: in=%+v out=%+v", in, out)
		}
	})

	// Every attachment answers 404: the collector must fail the round,
	// name the attachment, and hand back the input cursor.
	for _, tc := range attachmentCollectors(f) {
		t.Run(tc.name+"-attachment-404", func(t *testing.T) {
			var attachments atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, tc.prefix) {
					attachments.Add(1)
					http.NotFound(w, r)
					return
				}
				tc.handler.ServeHTTP(w, r)
			}))
			defer srv.Close()
			in := checkpoint.Cursor{Source: tc.name, Updated: time.Unix(1700000000, 0).UTC()}
			out, err := tc.collector(srv.URL).CollectSince(context.Background(), in, func(RawReport) error { return nil })
			if attachments.Load() == 0 {
				t.Fatal("no attachment was requested; test is vacuous")
			}
			if err == nil || !strings.Contains(err.Error(), "404") {
				t.Fatalf("attachment 404 not surfaced: %v", err)
			}
			if !reflect.DeepEqual(out, in) {
				t.Fatalf("failed round advanced the cursor: in=%+v out=%+v", in, out)
			}
		})
	}
}

// TestAttachmentsKeepSinkOrder delays attachment responses so downloads
// finish out of request order, and checks that reports still reach the
// sink in page order, each carrying its own post's attachment, with at
// most maxAttachmentFetches downloads in flight.
func TestAttachmentsKeepSinkOrder(t *testing.T) {
	f := BuildFixtures(testWorld(t, 600))
	collect := func(t *testing.T, c IncrementalCollector) []RawReport {
		_, got := collectSince(t, c, checkpoint.Cursor{})
		return got
	}
	for _, tc := range attachmentCollectors(f) {
		t.Run(tc.name, func(t *testing.T) {
			plain := httptest.NewServer(tc.handler)
			defer plain.Close()
			want := collect(t, tc.collector(plain.URL))

			var arrived, inFlight, maxInFlight, reordered atomic.Int32
			var lastDone atomic.Int32
			slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !strings.HasPrefix(r.URL.Path, tc.prefix) {
					tc.handler.ServeHTTP(w, r)
					return
				}
				n := inFlight.Add(1)
				defer inFlight.Add(-1)
				for m := maxInFlight.Load(); n > m && !maxInFlight.CompareAndSwap(m, n); m = maxInFlight.Load() {
				}
				// The first of every four requests answers last.
				seq := arrived.Add(1)
				if seq%4 == 1 {
					time.Sleep(10 * time.Millisecond)
				}
				tc.handler.ServeHTTP(w, r)
				if prev := lastDone.Swap(seq); prev > seq {
					reordered.Add(1)
				}
			}))
			defer slow.Close()
			got := collect(t, tc.collector(slow.URL))

			if arrived.Load() < 2 {
				t.Fatalf("only %d attachments requested; test is vacuous", arrived.Load())
			}
			if reordered.Load() == 0 {
				t.Fatal("downloads never finished out of order; test is vacuous")
			}
			if m := maxInFlight.Load(); m < 2 || m > maxAttachmentFetches {
				t.Fatalf("max attachment downloads in flight = %d, want 2..%d", m, maxAttachmentFetches)
			}
			if len(got) != len(want) {
				t.Fatalf("collected %d reports, want %d", len(got), len(want))
			}
			byID := make(map[string][]byte, len(tc.posts))
			for _, p := range tc.posts {
				byID[p.ID] = p.Attachment
			}
			for i := range want {
				if got[i].PostID != want[i].PostID {
					t.Fatalf("report %d: sunk %s, want %s", i, got[i].PostID, want[i].PostID)
				}
				if !bytes.Equal(got[i].Attachment, byID[got[i].PostID]) {
					t.Fatalf("report %s carries another post's attachment", got[i].PostID)
				}
			}
		})
	}
}

// TestSplitFixturesChronology checks the split invariants the append-only
// servers rely on: shares add up, and no wave post predates the rounds
// before it.
func TestSplitFixturesChronology(t *testing.T) {
	w := testWorld(t, 1500)
	f := BuildFixtures(w)
	initial, waves := SplitFixtures(f, 0.5, 3)
	if len(waves) != 3 {
		t.Fatalf("got %d waves, want 3", len(waves))
	}
	forums := func(x *Fixtures) [][]post {
		return [][]post{x.Twitter, x.Reddit, x.Smishtank, x.SmishingEU, x.Pastebin}
	}
	totals := make([]int, 5)
	for i, ps := range forums(initial) {
		totals[i] += len(ps)
	}
	for _, wv := range waves {
		for i, ps := range forums(wv) {
			totals[i] += len(ps)
		}
	}
	fullSizes := forums(f)
	for i, n := range totals {
		if n != len(fullSizes[i]) {
			t.Fatalf("forum %d: split total %d != %d", i, n, len(fullSizes[i]))
		}
	}
	// Chronology: last post of each stage <= first post of the next.
	for i := 0; i < 5; i++ {
		prev := forums(initial)[i]
		for _, wv := range waves {
			cur := forums(wv)[i]
			if len(prev) > 0 && len(cur) > 0 {
				if cur[0].CreatedAt.Before(prev[len(prev)-1].CreatedAt) {
					t.Fatalf("forum %d: wave post predates earlier stage", i)
				}
			}
			if len(cur) > 0 {
				prev = cur
			}
		}
	}
}
