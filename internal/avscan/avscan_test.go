package avscan

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"github.com/smishkit/smishkit/internal/corpus"
)

func TestVendorRosterSize(t *testing.T) {
	if len(Vendors) < 70 {
		t.Errorf("roster = %d vendors, want >= 70 (VirusTotal lists 70+)", len(Vendors))
	}
	seen := map[string]bool{}
	for _, v := range Vendors {
		if seen[v.Name] {
			t.Errorf("duplicate vendor %q", v.Name)
		}
		seen[v.Name] = true
	}
}

func TestScanDeterministic(t *testing.T) {
	s := NewStore()
	s.SetDetectability("evil.top", 0.8)
	a := s.Scan("https://evil.top/x")
	b := s.Scan("https://evil.top/x")
	if a.Stats != b.Stats {
		t.Errorf("scan not deterministic: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.Malicious+a.Stats.Suspicious+a.Stats.Harmless != len(Vendors) {
		t.Errorf("verdict counts don't sum to roster size")
	}
}

func TestScanZeroDetectability(t *testing.T) {
	s := NewStore()
	s.SetDetectability("fresh.top", 0.0)
	rep := s.Scan("https://fresh.top/a")
	if rep.Stats.Malicious != 0 {
		t.Errorf("fresh URL got %d malicious flags", rep.Stats.Malicious)
	}
}

func TestScanHighDetectability(t *testing.T) {
	s := NewStore()
	s.SetDetectability("ancient-phish.com", 1.0)
	rep := s.Scan("https://ancient-phish.com/kit")
	if rep.Stats.Malicious < 5 {
		t.Errorf("maximally detectable URL got only %d malicious flags", rep.Stats.Malicious)
	}
}

func TestScanSubdomainInheritsDomain(t *testing.T) {
	s := NewStore()
	s.SetDetectability("evil.top", 1.0)
	a := s.Scan("https://secure.evil.top/x")
	if a.Stats.Malicious < 5 {
		t.Errorf("subdomain did not inherit detectability: %+v", a.Stats)
	}
}

// Calibration: over a corpus-shaped URL population the detection tiers must
// follow Table 9's shape.
func TestDetectionTierShape(t *testing.T) {
	s := NewStore()
	w := corpus.Generate(corpus.Config{Seed: 31, Messages: 9000})
	var urls []string
	for _, m := range w.Messages {
		if m.FinalURL == "" {
			continue
		}
		if _, ok := w.Domains[m.Domain]; ok {
			s.SetDetectability(m.Domain, w.Domains[m.Domain].Detectability)
			urls = append(urls, m.FinalURL)
		}
	}
	if len(urls) < 2000 {
		t.Fatalf("only %d URLs", len(urls))
	}
	var zero, ge1, ge3, ge5, ge10, ge15, susp1 int
	for _, u := range urls {
		rep := s.Scan(u)
		m := rep.Stats.Malicious
		if m == 0 && rep.Stats.Suspicious == 0 {
			zero++
		}
		if m >= 1 {
			ge1++
		}
		if m >= 3 {
			ge3++
		}
		if m >= 5 {
			ge5++
		}
		if m >= 10 {
			ge10++
		}
		if m >= 15 {
			ge15++
		}
		if rep.Stats.Suspicious >= 1 {
			susp1++
		}
	}
	n := float64(len(urls))
	share := func(c int) float64 { return float64(c) / n }
	// Paper Table 9: 44.9% / 49.6% / 25.9% / 16.3% / 3.7% / 0.3% / 18.0%.
	within := func(name string, got, want, tol float64) {
		if got < want-tol || got > want+tol {
			t.Errorf("%s share = %.3f, want %.3f±%.3f", name, got, want, tol)
		}
	}
	within("undetected", share(zero), 0.449, 0.12)
	within("malicious>=1", share(ge1), 0.496, 0.12)
	within("malicious>=3", share(ge3), 0.259, 0.10)
	within("malicious>=5", share(ge5), 0.163, 0.09)
	within("malicious>=10", share(ge10), 0.037, 0.05)
	if share(ge15) > 0.03 {
		t.Errorf("malicious>=15 share = %.4f, want < 0.03 (paper: 0.3%%)", share(ge15))
	}
	within("suspicious>=1", share(susp1), 0.18, 0.10)
	// Ordering must hold regardless of calibration drift.
	if !(ge1 >= ge3 && ge3 >= ge5 && ge5 >= ge10 && ge10 >= ge15) {
		t.Error("detection tiers not monotone")
	}
}

// GSB's API must detect far fewer URLs than the VT aggregate, and the
// transparency site must block roughly half of the queries (Table 18).
func TestGSBShape(t *testing.T) {
	s := NewStore()
	w := corpus.Generate(corpus.Config{Seed: 32, Messages: 9000})
	var urls []string
	for _, m := range w.Messages {
		if m.FinalURL != "" && m.Domain != "" {
			s.SetDetectability(m.Domain, w.Domains[m.Domain].Detectability)
			urls = append(urls, m.FinalURL)
		}
	}
	var api, vtgsb, blocked, unsafe, partial, nodata int
	for _, u := range urls {
		if s.GSBLookup(u).Matched {
			api++
		}
		if s.Scan(u).Verdicts["GoogleSafebrowsing"] == VerdictMalicious {
			vtgsb++
		}
		res, b := s.Transparency(u)
		if b {
			blocked++
			continue
		}
		switch res.Status {
		case TransparencyUnsafe:
			unsafe++
		case TransparencyPartial:
			partial++
		case TransparencyNoData:
			nodata++
		}
	}
	n := float64(len(urls))
	if float64(api)/n > 0.04 {
		t.Errorf("GSB API detection = %.3f, want ~0.01", float64(api)/n)
	}
	if api >= vtgsb {
		t.Errorf("GSB API (%d) should detect fewer than the stale VT mirror (%d)... inverted", api, vtgsb)
	}
	if b := float64(blocked) / n; b < 0.40 || b > 0.60 {
		t.Errorf("transparency blocked = %.3f, want ~0.50", b)
	}
	queried := n - float64(blocked)
	if u := float64(unsafe) / queried; u < 0.02 || u > 0.20 {
		t.Errorf("transparency unsafe = %.3f of queried, want ~0.08", u)
	}
	if p := float64(partial) / queried; p > 0.15 {
		t.Errorf("transparency partial = %.3f, want ~0.044", p)
	}
	if nd := float64(nodata) / queried; nd < 0.15 || nd > 0.45 {
		t.Errorf("transparency no-data = %.3f, want ~0.285", nd)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	store := NewStore()
	store.SetDetectability("evil.top", 0.95)
	srv := httptest.NewServer(NewServer(store, "vt-key", 0).Handler())
	defer srv.Close()

	c := NewClient(srv.URL, "vt-key")
	ctx := context.Background()

	// The wire body still carries every vendor's verdict...
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/vt/v1/scan?url="+url.QueryEscape("https://evil.top/x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Api-Key", "vt-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var wire VendorReport
	err = json.NewDecoder(resp.Body).Decode(&wire)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire.Verdicts) != len(Vendors) {
		t.Errorf("wire verdicts = %d, want %d", len(wire.Verdicts), len(Vendors))
	}

	// ...and the client keeps counts that cover the whole roster.
	rep, err := c.Scan(ctx, "https://evil.top/x")
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Stats.Malicious + rep.Stats.Suspicious + rep.Stats.Harmless; n != len(Vendors) {
		t.Errorf("client stats sum to %d, want %d", n, len(Vendors))
	}
	if rep.Stats != wire.Stats || rep.URL != wire.URL {
		t.Errorf("client report %+v differs from the wire report's url and stats %q %+v", rep, wire.URL, wire.Stats)
	}

	if _, err := c.GSBLookup(ctx, "https://evil.top/x"); err != nil {
		t.Fatal(err)
	}

	// Transparency: find one blocked and one queryable URL.
	var sawBlocked, sawOpen bool
	for i := 0; i < 40 && (!sawBlocked || !sawOpen); i++ {
		_, blocked, err := c.Transparency(ctx, fmt.Sprintf("https://evil.top/p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if blocked {
			sawBlocked = true
		} else {
			sawOpen = true
		}
	}
	if !sawBlocked || !sawOpen {
		t.Errorf("transparency blocking not exercised: blocked=%v open=%v", sawBlocked, sawOpen)
	}
}

// The bulk endpoint answers each URL exactly as the single-URL endpoint
// does, slot for slot.
func TestScanBatchMatchesScan(t *testing.T) {
	store := NewStore()
	store.SetDetectability("evil.top", 0.95)
	store.SetDetectability("fresh.top", 0.0)
	srv := httptest.NewServer(NewServer(store, "vt-key", 0).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, "vt-key")
	ctx := context.Background()

	urls := []string{"https://evil.top/x", "https://fresh.top/a", "https://secure.evil.top/y", "https://other.example/z"}
	got, errs := c.ScanBatch(ctx, urls)
	if len(got) != len(urls) || len(errs) != len(urls) {
		t.Fatalf("ScanBatch returned %d results and %d errors for %d urls", len(got), len(errs), len(urls))
	}
	for i, u := range urls {
		if errs[i] != nil {
			t.Fatalf("ScanBatch slot %d (%s): %v", i, u, errs[i])
		}
		want, err := c.Scan(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("ScanBatch slot %d = %+v, Scan(%s) = %+v", i, got[i], u, want)
		}
	}
}

func TestHTTPAuth(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore(), "right", 0).Handler())
	defer srv.Close()
	if _, err := NewClient(srv.URL, "wrong").Scan(context.Background(), "https://x.com"); err == nil {
		t.Fatal("expected auth error")
	}
}

func TestHashUnitRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		u := hashUnit("a", fmt.Sprint(i))
		if u < 0 || u >= 1 {
			t.Fatalf("hashUnit out of range: %v", u)
		}
	}
	if hashUnit("x") != hashUnit("x") {
		t.Error("hashUnit unstable")
	}
	if hashUnit("x", "y") == hashUnit("xy") {
		t.Error("hashUnit ignores separators")
	}
}
