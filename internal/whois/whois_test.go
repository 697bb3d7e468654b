package whois

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

func sample() Record {
	return Record{
		Domain:     "sbi-kyc.top",
		Registrar:  "GoDaddy",
		Registered: time.Date(2021, 7, 20, 0, 0, 0, 0, time.UTC),
		Expires:    time.Date(2022, 7, 20, 0, 0, 0, 0, time.UTC),
		NameServer: "ns1.parkingcrew.net",
		Status:     "clientTransferProhibited",
	}
}

func TestStoreLookupCaseInsensitive(t *testing.T) {
	s := NewStore()
	s.Add(sample())
	if _, ok := s.Lookup("SBI-KYC.TOP"); !ok {
		t.Error("uppercase lookup missed")
	}
	if _, ok := s.Lookup(" sbi-kyc.top "); !ok {
		t.Error("whitespace lookup missed")
	}
	if _, ok := s.Lookup("other.com"); ok {
		t.Error("phantom record")
	}
}

func TestHTTPAPIRoundTrip(t *testing.T) {
	store := NewStore()
	store.Add(sample())
	srv := httptest.NewServer(NewServer(store, "wkey", 0).Handler())
	defer srv.Close()

	c := NewClient(srv.URL, "wkey")
	rec, found, err := c.Lookup(context.Background(), "sbi-kyc.top")
	if err != nil {
		t.Fatal(err)
	}
	if !found || rec.Registrar != "GoDaddy" {
		t.Errorf("rec = %+v found = %v", rec, found)
	}

	_, found, err = c.Lookup(context.Background(), "nope.invalid")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("phantom record over HTTP")
	}
}

func TestHTTPAPIAuth(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore(), "right", 0).Handler())
	defer srv.Close()
	_, _, err := NewClient(srv.URL, "wrong").Lookup(context.Background(), "x.com")
	if err == nil {
		t.Fatal("expected auth error")
	}
}
