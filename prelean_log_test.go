package smishkit

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/recordlog"
	"github.com/smishkit/smishkit/internal/report"
	"github.com/smishkit/smishkit/internal/shard"
	"github.com/smishkit/smishkit/internal/urlinfo"
)

// preLeanDir holds a record log written while records still carried a
// parsed URLInfo: a snapshot.json with 21 records (8 of them behind a
// shortener) and a records.log whose second frame, past the snapshot,
// adds 15 more (4 wa.me links). The *.golden files are the report,
// /query/summary and /query/reports bodies that build served from it.
const preLeanDir = "testdata/prelean-log"

// storedURLFacts is what an old record stored under URLInfo and a reader
// still needs: the routing domain, the messaging host and the TLD.
type storedURLFacts struct {
	ID       string
	ShownURL string
	URLInfo  struct {
		Domain    string
		TLD       string
		Messaging string
	}
}

// TestPreLeanLogServesUnchanged opens the old-format log and checks that
// the report and the query bodies served from it are byte-identical to
// the goldens, and that each URL fact its records stored is the one now
// derived from ShownURL where it is read.
func TestPreLeanLogServesUnchanged(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"records.log", "snapshot.json"} {
		data, err := os.ReadFile(filepath.Join(preLeanDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := recordlog.Open(DurabilityConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proj := report.NewProjectionOver(nil, l)
	defer proj.Close()
	if err := proj.Submit(context.Background(), l.Committed(), time.Time{}); err != nil {
		t.Fatal(err)
	}
	ds := proj.Dataset()
	if len(ds.Records) != 36 {
		t.Fatalf("replayed %d records, want 36 (21 snapshot + 15 tail)", len(ds.Records))
	}

	var rendered bytes.Buffer
	if err := report.RenderAll(&rendered, ds); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.golden", rendered.Bytes())
	for golden, target := range map[string]string{
		"summary.golden": "/query/summary",
		"reports.golden": "/query/reports?limit=1000",
	} {
		var h http.Handler = proj.Query().SummaryHandler()
		if golden == "reports.golden" {
			h = proj.Query().ReportsHandler()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s returned %d: %s", target, rec.Code, rec.Body.String())
		}
		checkGolden(t, golden, rec.Body.Bytes())
	}

	stored := readStoredURLFacts(t)
	var shortened, messaging int
	for i := range ds.Records {
		r := &ds.Records[i]
		old, ok := stored[r.ID]
		if !ok {
			t.Fatalf("record %s is in no snapshot or frame", r.ID)
		}
		info, _ := urlinfo.Parse(r.ShownURL) // a failed parse stored a zero URLInfo
		if info.Domain != old.URLInfo.Domain || info.TLD != old.URLInfo.TLD || info.Messaging != old.URLInfo.Messaging {
			t.Errorf("%s: derived (domain %q, tld %q, messaging %q), stored (%q, %q, %q)", r.ID,
				info.Domain, info.TLD, info.Messaging, old.URLInfo.Domain, old.URLInfo.TLD, old.URLInfo.Messaging)
		}
		if old.URLInfo.Domain != "" {
			if got, want := shard.KeyOf(r), "d:"+old.URLInfo.Domain; got != want {
				t.Errorf("%s: KeyOf = %q, want %q", r.ID, got, want)
			}
		}
		if r.Shortener != "" {
			shortened++
		}
		if old.URLInfo.Messaging != "" {
			messaging++
		}
	}
	if shortened == 0 || messaging == 0 {
		t.Fatalf("fixture has %d shortened and %d messaging records; it must cover both", shortened, messaging)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(preLeanDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the old build's output:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// readStoredURLFacts decodes the URLInfo of every record in the fixture's
// snapshot and log frames (header: kind byte, little-endian payload length
// and CRC), keyed by record ID.
func readStoredURLFacts(t *testing.T) map[string]storedURLFacts {
	t.Helper()
	out := map[string]storedURLFacts{}
	add := func(payload []byte) {
		var doc struct{ Records []storedURLFacts }
		if err := json.Unmarshal(payload, &doc); err != nil {
			t.Fatal(err)
		}
		for _, r := range doc.Records {
			out[r.ID] = r
		}
	}
	snap, err := os.ReadFile(filepath.Join(preLeanDir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	add(snap)
	frames, err := os.ReadFile(filepath.Join(preLeanDir, "records.log"))
	if err != nil {
		t.Fatal(err)
	}
	for len(frames) >= 9 {
		n := int(binary.LittleEndian.Uint32(frames[1:5]))
		if frames[0] != 1 || len(frames) < 9+n {
			t.Fatalf("fixture frame: kind %d, length %d of %d bytes left", frames[0], n, len(frames)-9)
		}
		add(frames[9 : 9+n])
		frames = frames[9+n:]
	}
	return out
}
