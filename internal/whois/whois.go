// Package whois simulates the registrar-data service the paper accessed via
// WhoisXMLAPI (§3.3.3). It serves domain registration records over a JSON
// HTTP API with an API key — the form the enrichment pipeline automates,
// since real WHOIS restricts programmatic querying.
package whois

import (
	"context"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/netutil"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Record is one domain's registration data.
type Record struct {
	Domain     string    `json:"domain"`
	Registrar  string    `json:"registrar"`
	Registered time.Time `json:"registered"`
	Expires    time.Time `json:"expires"`
	NameServer string    `json:"name_server"`
	Status     string    `json:"status"` // clientTransferProhibited etc.
}

// Store is an in-memory WHOIS database. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	records map[string]Record
}

// NewStore returns an empty database.
func NewStore() *Store { return &Store{records: make(map[string]Record)} }

// Add upserts a record keyed by lowercase domain.
func (s *Store) Add(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records[strings.ToLower(r.Domain)] = r
}

// Lookup returns the record for domain.
func (s *Store) Lookup(domain string) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.records[strings.ToLower(strings.TrimSpace(domain))]
	return r, ok
}

// Len returns the database size.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// --- JSON HTTP API (WhoisXMLAPI-style) ---

// Server exposes GET /v1/whois?domain=... with API-key auth + rate limit.
type Server struct {
	store   *Store
	apiKey  string
	limiter *netutil.TokenBucket
}

// NewServer wires the store into the HTTP API.
func NewServer(store *Store, apiKey string, ratePerSec float64) *Server {
	s := &Server{store: store, apiKey: apiKey}
	if ratePerSec > 0 {
		s.limiter = netutil.NewTokenBucket(int(ratePerSec*2)+1, ratePerSec)
	}
	return s
}

// Response is the JSON lookup result.
type Response struct {
	Found  bool   `json:"found"`
	Record Record `json:"record"`
}

// Handler returns the routed handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/whois", func(w http.ResponseWriter, r *http.Request) {
		if s.limiter != nil && !s.limiter.Allow() {
			netutil.WriteRateLimited(w, s.limiter.RetryAfter(1))
			return
		}
		domain := r.URL.Query().Get("domain")
		if domain == "" {
			netutil.WriteError(w, http.StatusBadRequest, "missing domain parameter")
			return
		}
		rec, ok := s.store.Lookup(domain)
		netutil.WriteJSON(w, http.StatusOK, Response{Found: ok, Record: rec})
	})
	return netutil.RequireKey(s.apiKey, mux)
}

// Client consumes the JSON API.
type Client struct {
	API netutil.Client
}

// NewClient builds a client for the service at baseURL.
func NewClient(baseURL, apiKey string) *Client {
	return &Client{API: netutil.Client{BaseURL: baseURL, APIKey: apiKey}}
}

// Instrument records this client's calls, errors, retries, 429s, and
// latency into reg under the "whois" service name. Returns c for chaining.
func (c *Client) Instrument(reg *telemetry.Registry) *Client {
	c.API.Metrics = telemetry.NewClientMetrics(reg, "whois")
	return c
}

// Lookup fetches a domain's registration record.
func (c *Client) Lookup(ctx context.Context, domain string) (Record, bool, error) {
	var resp Response
	if err := c.API.GetJSON(ctx, "/v1/whois?domain="+url.QueryEscape(domain), &resp); err != nil {
		return Record{}, false, err
	}
	return resp.Record, resp.Found, nil
}
