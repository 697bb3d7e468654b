package hlr

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/senderid"
)

func TestStoreLookupRegistry(t *testing.T) {
	s := NewStore()
	s.Add(Record{
		MSISDN:      "+447700900123",
		NumberType:  senderid.TypeMobile,
		OriginalMNO: "Vodafone",
		CurrentMNO:  "O2",
		Country:     "GBR",
		Status:      StatusLive,
	})
	res := s.Lookup("+44 7700 900123") // formatted differently
	if !res.Known || res.Source != "registry" {
		t.Fatalf("lookup missed registry: %+v", res)
	}
	if res.OriginalMNO != "Vodafone" || res.Country != "GBR" {
		t.Errorf("record = %+v", res.Record)
	}
}

func TestStoreLookupPlanFallback(t *testing.T) {
	s := NewStore()
	res := s.Lookup("+447700900999")
	if res.Known || res.Source != "plan" {
		t.Fatalf("unexpected registry hit: %+v", res)
	}
	if res.NumberType != senderid.TypeMobile || res.Country != "GBR" {
		t.Errorf("fallback = %+v", res.Record)
	}
	if res.Status != StatusUndetermined {
		t.Errorf("status = %q", res.Status)
	}
}

func TestStoreLookupBadFormat(t *testing.T) {
	s := NewStore()
	res := s.Lookup("+99912345678901234")
	if res.NumberType != senderid.TypeBadFormat {
		t.Errorf("type = %q, want bad_format", res.NumberType)
	}
}

func TestServerEndToEnd(t *testing.T) {
	store := NewStore()
	store.Add(Record{
		MSISDN: "+919876543210", NumberType: senderid.TypeMobile,
		OriginalMNO: "AirTel", Country: "IND", Status: StatusLive,
	})
	srv := httptest.NewServer(NewServer(store, "key123", 0).Handler())
	defer srv.Close()

	c := NewClient(srv.URL, "key123")
	res, err := c.Lookup(context.Background(), "+919876543210")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Known || res.OriginalMNO != "AirTel" {
		t.Errorf("result = %+v", res)
	}
}

func TestServerRejectsBadKey(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore(), "right", 0).Handler())
	defer srv.Close()
	_, err := NewClient(srv.URL, "wrong").Lookup(context.Background(), "+447700900123")
	if err == nil {
		t.Fatal("expected auth failure")
	}
}

func TestServerMissingParam(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore(), "", 0).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/lookup")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestBulkLookup(t *testing.T) {
	store := NewStore()
	nums := make([]string, 0, 1200)
	for i := 0; i < 1200; i++ {
		m := "+9198765" + pad5(i)
		store.Add(Record{MSISDN: m, NumberType: senderid.TypeMobile, OriginalMNO: "Jio", Country: "IND", Status: StatusLive})
		nums = append(nums, m)
	}
	srv := httptest.NewServer(NewServer(store, "", 0).Handler())
	defer srv.Close()

	c := NewClient(srv.URL, "")
	// 1200 numbers span three MaxBulk chunks.
	results, errs := c.LookupBatch(context.Background(), nums)
	if len(results) != 1200 || len(errs) != 1200 {
		t.Fatalf("results = %d, errs = %d", len(results), len(errs))
	}
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("slot %d: %v", i, errs[i])
		}
		if r.MSISDN != nums[i] {
			t.Fatalf("order broken at %d: %q != %q", i, r.MSISDN, nums[i])
		}
		if !r.Known {
			t.Fatalf("bulk miss for %q", nums[i])
		}
	}
}

func TestBulkRejectsOversizedBatch(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore(), "", 0).Handler())
	defer srv.Close()
	big := bulkRequest{MSISDNs: make([]string, MaxBulk+1)}
	for i := range big.MSISDNs {
		big.MSISDNs[i] = "+447700900123"
	}
	c := NewClient(srv.URL, "")
	var resp bulkResponse
	err := c.API.PostJSON(context.Background(), "/v1/bulk", big, &resp)
	if err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestServerRateLimit(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewServer(store, "", 1).Handler()) // ~1 rps, burst 3
	defer srv.Close()

	limited := false
	for i := 0; i < 10; i++ {
		resp, err := http.Get(srv.URL + "/v1/lookup?msisdn=%2B447700900123")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			limited = true
			break
		}
	}
	if !limited {
		t.Error("rate limiter never engaged")
	}
}

// Loading a corpus world into the store reproduces Table 4's shape.
func TestStoreFromWorld(t *testing.T) {
	w := corpus.Generate(corpus.Config{Seed: 20, Messages: 6000})
	store := NewStore()
	for msisdn, s := range w.Numbers {
		status := StatusInactive
		if s.Live {
			status = StatusLive
		}
		store.Add(Record{
			MSISDN:      msisdn,
			NumberType:  s.NumberType,
			OriginalMNO: s.MNO,
			Country:     s.Country,
			Status:      status,
		})
	}
	if store.Len() != len(w.Numbers) {
		t.Fatalf("store len = %d, want %d", store.Len(), len(w.Numbers))
	}
	// Every generated number must resolve as a registry hit.
	hits := 0
	for msisdn := range w.Numbers {
		if res := store.Lookup(msisdn); res.Known {
			hits++
		}
	}
	if hits != len(w.Numbers) {
		t.Errorf("registry hits = %d / %d", hits, len(w.Numbers))
	}
}

func pad5(i int) string {
	d := [5]byte{'0', '0', '0', '0', '0'}
	for p := 4; p >= 0 && i > 0; p-- {
		d[p] = byte('0' + i%10)
		i /= 10
	}
	return string(d[:])
}
