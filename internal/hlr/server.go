package hlr

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"github.com/smishkit/smishkit/internal/netutil"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Server exposes the registry over HTTP:
//
//	GET  /v1/lookup?msisdn=+447700900123
//	POST /v1/bulk   {"msisdns": ["+44...", ...]}  (max 500 per call)
//
// Requests require the configured API key and are rate limited.
type Server struct {
	store   *Store
	apiKey  string
	limiter *netutil.TokenBucket
}

// MaxBulk is the largest accepted bulk-lookup batch.
const MaxBulk = 500

// NewServer wires a Store into an HTTP service. ratePerSec <= 0 disables
// rate limiting.
func NewServer(store *Store, apiKey string, ratePerSec float64) *Server {
	s := &Server{store: store, apiKey: apiKey}
	if ratePerSec > 0 {
		s.limiter = netutil.NewTokenBucket(int(ratePerSec*2)+1, ratePerSec)
	}
	return s
}

// Handler returns the routed, authenticated handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/lookup", s.handleLookup)
	mux.HandleFunc("POST /v1/bulk", s.handleBulk)
	return netutil.RequireKey(s.apiKey, mux)
}

func (s *Server) allow(w http.ResponseWriter, n int) bool {
	if s.limiter == nil || s.limiter.AllowN(n) {
		return true
	}
	netutil.WriteRateLimited(w, s.limiter.RetryAfter(n))
	return false
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	if !s.allow(w, 1) {
		return
	}
	msisdn := r.URL.Query().Get("msisdn")
	if msisdn == "" {
		netutil.WriteError(w, http.StatusBadRequest, "missing msisdn parameter")
		return
	}
	netutil.WriteJSON(w, http.StatusOK, s.store.Lookup(msisdn))
}

type bulkRequest struct {
	MSISDNs []string `json:"msisdns"`
}

// bulkResponse carries partial-result semantics: Results[i] answers
// MSISDNs[i], and a non-empty Errors[i] marks that one slot as failed
// without poisoning the rest of the batch.
type bulkResponse struct {
	Results []Result `json:"results"`
	Errors  []string `json:"errors,omitempty"`
}

func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	var req bulkRequest
	if err := netutil.ReadJSON(r, &req); err != nil {
		netutil.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.MSISDNs) == 0 {
		netutil.WriteError(w, http.StatusBadRequest, "empty msisdn list")
		return
	}
	if len(req.MSISDNs) > MaxBulk {
		netutil.WriteError(w, http.StatusRequestEntityTooLarge, "batch exceeds limit")
		return
	}
	if !s.allow(w, len(req.MSISDNs)) {
		return
	}
	resp := bulkResponse{
		Results: make([]Result, len(req.MSISDNs)),
		Errors:  make([]string, len(req.MSISDNs)),
	}
	for i, m := range req.MSISDNs {
		if strings.TrimSpace(m) == "" {
			resp.Errors[i] = "empty msisdn"
			continue
		}
		resp.Results[i] = s.store.Lookup(m)
	}
	netutil.WriteJSON(w, http.StatusOK, resp)
}

// Client is the HLR API consumer used by the enrichment pipeline.
type Client struct {
	API netutil.Client
}

// NewClient builds a client for the service at baseURL.
func NewClient(baseURL, apiKey string) *Client {
	return &Client{API: netutil.Client{BaseURL: baseURL, APIKey: apiKey}}
}

// Instrument records this client's calls, errors, retries, 429s, and
// latency into reg under the "hlr" service name. Returns c for chaining.
func (c *Client) Instrument(reg *telemetry.Registry) *Client {
	c.API.Metrics = telemetry.NewClientMetrics(reg, "hlr")
	return c
}

// Lookup resolves a single MSISDN.
func (c *Client) Lookup(ctx context.Context, msisdn string) (Result, error) {
	var out Result
	err := c.API.GetJSON(ctx, "/v1/lookup?msisdn="+urlEscape(msisdn), &out)
	return out, err
}

// LookupBatch resolves msisdns in MaxBulk-sized batches with partial-result
// semantics: results[i] and errs[i] answer msisdns[i], and a transport-level
// failure fans out to every slot of its chunk without touching the others.
func (c *Client) LookupBatch(ctx context.Context, msisdns []string) ([]Result, []error) {
	results := make([]Result, len(msisdns))
	errs := make([]error, len(msisdns))
	for start := 0; start < len(msisdns); start += MaxBulk {
		end := start + MaxBulk
		if end > len(msisdns) {
			end = len(msisdns)
		}
		chunk := msisdns[start:end]
		var resp bulkResponse
		if err := c.API.PostJSON(ctx, "/v1/bulk", bulkRequest{MSISDNs: chunk}, &resp); err != nil {
			for i := start; i < end; i++ {
				errs[i] = err
			}
			continue
		}
		for i := range chunk {
			switch {
			case i < len(resp.Errors) && resp.Errors[i] != "":
				errs[start+i] = fmt.Errorf("hlr: bulk lookup %q: %s", chunk[i], resp.Errors[i])
			case i < len(resp.Results):
				results[start+i] = resp.Results[i]
			default:
				errs[start+i] = fmt.Errorf("hlr: bulk response missing slot %d", i)
			}
		}
	}
	return results, errs
}

// urlEscape percent-encodes the characters that appear in MSISDNs.
func urlEscape(s string) string {
	var b []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '+':
			b = append(b, '%', '2', 'B')
		case c == ' ':
			b = append(b, '%', '2', '0')
		default:
			b = append(b, c)
		}
	}
	return string(b)
}
