package forum

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/netutil"
)

// attachmentPage serves n attachments at /media/<i>, each answering its own
// path, and counts the connections the server accepts. When limited is
// non-empty, that path's first request answers 429 with Retry-After: 3.
func attachmentPage(t *testing.T, n int, limited string) (*httptest.Server, []string, *atomic.Int32) {
	t.Helper()
	var conns atomic.Int32
	var once sync.Once
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		first := false
		if r.URL.Path == limited {
			once.Do(func() { first = true })
		}
		if first {
			w.Header().Set("Retry-After", "3")
			netutil.WriteError(w, http.StatusTooManyRequests, "slow down")
			return
		}
		time.Sleep(time.Millisecond) // keep downloads overlapping
		fmt.Fprint(w, r.URL.Path)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/media/%d", i)
	}
	return srv, paths, &conns
}

// checkAttachments asserts every slot holds its own path's bytes.
func checkAttachments(t *testing.T, paths []string, got [][]byte) {
	t.Helper()
	for i, p := range paths {
		if string(got[i]) != p {
			t.Fatalf("slot %d = %q, want %q", i, got[i], p)
		}
	}
}

// TestAttachmentsShareConnectionPool downloads a page of 16 attachments
// in each of four polling rounds and checks the rounds reuse the shared
// keep-alive pool: a pool keeping fewer idle connections than a page keeps
// in flight closes the surplus after every round and dials it again the
// next.
func TestAttachmentsShareConnectionPool(t *testing.T) {
	srv, paths, conns := attachmentPage(t, 16, "")
	api := &netutil.Client{BaseURL: srv.URL}
	const rounds = 4
	for round := 0; round < rounds; round++ {
		got, _, err := fetchAttachments(context.Background(), api, paths)
		if err != nil {
			t.Fatal(err)
		}
		checkAttachments(t, paths, got)
	}
	if n := conns.Load(); n < 1 || n > netutil.MaxConnsPerHost {
		t.Errorf("server saw %d connections for %d downloads, want 1..%d",
			n, rounds*len(paths), netutil.MaxConnsPerHost)
	}
}

// TestAttachmentHonorsRetryAfter rate-limits one attachment with
// Retry-After: 3 and checks the download waits the server's three seconds
// (recorded through the Sleep hook) before it retries.
func TestAttachmentHonorsRetryAfter(t *testing.T) {
	srv, paths, _ := attachmentPage(t, 8, "/media/5")
	var mu sync.Mutex
	var slept []time.Duration
	api := &netutil.Client{
		BaseURL: srv.URL,
		Sleep: func(_ context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return nil
		},
	}
	got, _, err := fetchAttachments(context.Background(), api, paths)
	if err != nil {
		t.Fatal(err)
	}
	checkAttachments(t, paths, got)
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Fatalf("slept %v, want one 3s wait from Retry-After", slept)
	}
}
