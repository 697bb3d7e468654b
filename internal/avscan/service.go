package avscan

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"github.com/smishkit/smishkit/internal/netutil"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// VendorReport is a VirusTotal-style aggregate scan result as the service
// sends it: every vendor's verdict plus the counts by class.
type VendorReport struct {
	URL      string             `json:"url"`
	Verdicts map[string]Verdict `json:"verdicts"` // vendor -> verdict
	Stats    ReportStats        `json:"stats"`
}

// Report is the part of a VendorReport the pipeline reads: the URL and the
// counts by class. The client decodes the service's VendorReport bytes
// into it, skipping the per-vendor verdicts, so callers and caches never
// hold one map entry per vendor.
type Report struct {
	URL   string      `json:"url"`
	Stats ReportStats `json:"stats"`
}

// ReportStats counts verdicts by class.
type ReportStats struct {
	Malicious  int `json:"malicious"`
	Suspicious int `json:"suspicious"`
	Harmless   int `json:"harmless"`
}

// Store holds per-domain ground-truth detectability, fed from the corpus.
type Store struct {
	mu            sync.RWMutex
	detectability map[string]float64 // by registrable domain
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{detectability: make(map[string]float64)} }

// SetDetectability registers a domain's ground-truth detectability.
func (s *Store) SetDetectability(domain string, d float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detectability[strings.ToLower(domain)] = d
}

// detectabilityOf resolves the detectability for a URL: the registered
// value of the longest matching domain suffix, else a deterministic
// pseudo-value.
func (s *Store) detectabilityOf(rawURL string) float64 {
	host := hostOf(rawURL)
	s.mu.RLock()
	defer s.mu.RUnlock()
	labels := strings.Split(host, ".")
	for i := 0; i < len(labels)-1; i++ {
		if d, ok := s.detectability[strings.Join(labels[i:], ".")]; ok {
			return d
		}
	}
	return DefaultDetectability(rawURL)
}

func hostOf(rawURL string) string {
	s := rawURL
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return strings.ToLower(rawURL)
	}
	return strings.ToLower(u.Hostname())
}

// Scan produces the full multi-vendor report for a URL.
func (s *Store) Scan(rawURL string) VendorReport {
	d := s.detectabilityOf(rawURL)
	rep := VendorReport{URL: rawURL, Verdicts: make(map[string]Verdict, len(Vendors))}
	for _, v := range Vendors {
		verdict := verdictFor(v, rawURL, d)
		rep.Verdicts[v.Name] = verdict
		switch verdict {
		case VerdictMalicious:
			rep.Stats.Malicious++
		case VerdictSuspicious:
			rep.Stats.Suspicious++
		default:
			rep.Stats.Harmless++
		}
	}
	return rep
}

// GSBResult is the Safe Browsing API answer for one URL.
type GSBResult struct {
	URL     string `json:"url"`
	Matched bool   `json:"matched"`
	Threat  string `json:"threat,omitempty"` // SOCIAL_ENGINEERING when matched
}

// GSBLookup runs the Safe Browsing check.
func (s *Store) GSBLookup(rawURL string) GSBResult {
	d := s.detectabilityOf(rawURL)
	res := GSBResult{URL: rawURL, Matched: GSBAPIDetects(rawURL, d)}
	if res.Matched {
		res.Threat = "SOCIAL_ENGINEERING"
	}
	return res
}

// TransparencyResult is the transparency-report site's answer.
type TransparencyResult struct {
	URL    string             `json:"url"`
	Status TransparencyStatus `json:"status"`
}

// Transparency runs the transparency-report check; blocked reports whether
// the site refused the automated query.
func (s *Store) Transparency(rawURL string) (TransparencyResult, bool) {
	if TransparencyBlocked(rawURL) {
		return TransparencyResult{URL: rawURL}, true
	}
	d := s.detectabilityOf(rawURL)
	return TransparencyResult{URL: rawURL, Status: TransparencyLookup(rawURL, d)}, false
}

// MaxBulk is the largest accepted bulk-scan batch.
const MaxBulk = 500

// Server exposes the endpoints mirroring the paper's three data paths:
//
//	GET  /vt/v1/scan?url=...                VirusTotal-style aggregate
//	POST /vt/v1/scan/bulk {"urls": [...]}   bulk aggregate (max 500)
//	GET  /gsb/v4/lookup?url=...             Safe Browsing API
//	POST /gsb/v4/lookup/bulk {"urls":[...]} bulk Safe Browsing (max 500)
//	GET  /transparency/report?url=...       GSB transparency site (often 403)
//
// The transparency site has no bulk form: it refuses automation, which is
// the point of that data path.
type Server struct {
	store   *Store
	apiKey  string
	limiter *netutil.TokenBucket
}

// NewServer wires the store into the HTTP service.
func NewServer(store *Store, apiKey string, ratePerSec float64) *Server {
	s := &Server{store: store, apiKey: apiKey}
	if ratePerSec > 0 {
		s.limiter = netutil.NewTokenBucket(int(ratePerSec*2)+1, ratePerSec)
	}
	return s
}

// Handler returns the routed handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /vt/v1/scan", s.withURL(func(w http.ResponseWriter, u string) {
		netutil.WriteJSON(w, http.StatusOK, s.store.Scan(u))
	}))
	mux.HandleFunc("GET /gsb/v4/lookup", s.withURL(func(w http.ResponseWriter, u string) {
		netutil.WriteJSON(w, http.StatusOK, s.store.GSBLookup(u))
	}))
	mux.HandleFunc("GET /transparency/report", s.withURL(func(w http.ResponseWriter, u string) {
		res, blocked := s.store.Transparency(u)
		if blocked {
			netutil.WriteError(w, http.StatusForbidden, "automated queries are not permitted")
			return
		}
		netutil.WriteJSON(w, http.StatusOK, res)
	}))
	mux.HandleFunc("POST /vt/v1/scan/bulk", s.withBulk(func(u string) (any, string) {
		return s.store.Scan(u), ""
	}))
	mux.HandleFunc("POST /gsb/v4/lookup/bulk", s.withBulk(func(u string) (any, string) {
		return s.store.GSBLookup(u), ""
	}))
	return netutil.RequireKey(s.apiKey, mux)
}

// bulkRequest / bulkResponse are the bulk wire shapes shared by the VT and
// GSB bulk endpoints; Results[i] answers URLs[i], with a non-empty Error
// marking that one slot as failed without poisoning the batch.
type bulkRequest struct {
	URLs []string `json:"urls"`
}

type bulkItem struct {
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

type bulkResponse struct {
	Results []bulkItem `json:"results"`
}

func (s *Server) withBulk(fn func(u string) (any, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req bulkRequest
		if err := netutil.ReadJSON(r, &req); err != nil {
			netutil.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		if len(req.URLs) == 0 {
			netutil.WriteError(w, http.StatusBadRequest, "empty url list")
			return
		}
		if len(req.URLs) > MaxBulk {
			netutil.WriteError(w, http.StatusRequestEntityTooLarge, "batch exceeds limit")
			return
		}
		if s.limiter != nil && !s.limiter.AllowN(len(req.URLs)) {
			netutil.WriteRateLimited(w, s.limiter.RetryAfter(len(req.URLs)))
			return
		}
		resp := bulkResponse{Results: make([]bulkItem, len(req.URLs))}
		for i, u := range req.URLs {
			if strings.TrimSpace(u) == "" {
				resp.Results[i] = bulkItem{Error: "empty url"}
				continue
			}
			res, errMsg := fn(u)
			if errMsg != "" {
				resp.Results[i] = bulkItem{Error: errMsg}
				continue
			}
			resp.Results[i] = bulkItem{Result: res}
		}
		netutil.WriteJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) withURL(fn func(w http.ResponseWriter, u string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.limiter != nil && !s.limiter.Allow() {
			netutil.WriteRateLimited(w, s.limiter.RetryAfter(1))
			return
		}
		u := r.URL.Query().Get("url")
		if u == "" {
			netutil.WriteError(w, http.StatusBadRequest, "missing url parameter")
			return
		}
		fn(w, u)
	}
}

// ErrBlocked is returned by the transparency client when the site refuses
// an automated query.
var ErrBlocked = &netutil.APIError{Status: http.StatusForbidden, Body: "blocked"}

// Client consumes all three endpoints.
type Client struct {
	API netutil.Client
}

// NewClient builds a client for the service at baseURL.
func NewClient(baseURL, apiKey string) *Client {
	return &Client{API: netutil.Client{BaseURL: baseURL, APIKey: apiKey}}
}

// Instrument records this client's calls, errors, retries, 429s, and
// latency into reg under the "avscan" service name. Returns c for chaining.
func (c *Client) Instrument(reg *telemetry.Registry) *Client {
	c.API.Metrics = telemetry.NewClientMetrics(reg, "avscan")
	return c
}

// Scan fetches the multi-vendor report, keeping only its counts.
func (c *Client) Scan(ctx context.Context, u string) (Report, error) {
	var out Report
	err := c.API.GetJSON(ctx, "/vt/v1/scan?url="+url.QueryEscape(u), &out)
	return out, err
}

// GSBLookup queries the Safe Browsing API.
func (c *Client) GSBLookup(ctx context.Context, u string) (GSBResult, error) {
	var out GSBResult
	err := c.API.GetJSON(ctx, "/gsb/v4/lookup?url="+url.QueryEscape(u), &out)
	return out, err
}

// ScanBatch fetches many multi-vendor reports in MaxBulk-sized batches,
// keeping only their counts, with partial-result semantics: results[i]
// and errs[i] answer urls[i].
func (c *Client) ScanBatch(ctx context.Context, urls []string) ([]Report, []error) {
	return postBulk[Report](ctx, &c.API, "/vt/v1/scan/bulk", "scan", urls)
}

// GSBLookupBatch queries the Safe Browsing status of many URLs in
// MaxBulk-sized batches with partial-result semantics.
func (c *Client) GSBLookupBatch(ctx context.Context, urls []string) ([]GSBResult, []error) {
	return postBulk[GSBResult](ctx, &c.API, "/gsb/v4/lookup/bulk", "gsb lookup", urls)
}

// postBulk drives one bulk endpoint chunk by chunk: a transport-level
// failure fans out to every slot of its chunk, a per-item error lands on
// its slot alone.
func postBulk[V any](ctx context.Context, api *netutil.Client, path, label string, urls []string) ([]V, []error) {
	results := make([]V, len(urls))
	errs := make([]error, len(urls))
	type wireItem struct {
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	}
	for start := 0; start < len(urls); start += MaxBulk {
		end := start + MaxBulk
		if end > len(urls) {
			end = len(urls)
		}
		chunk := urls[start:end]
		var resp struct {
			Results []wireItem `json:"results"`
		}
		if err := api.PostJSON(ctx, path, bulkRequest{URLs: chunk}, &resp); err != nil {
			for i := start; i < end; i++ {
				errs[i] = err
			}
			continue
		}
		for i := range chunk {
			switch {
			case i >= len(resp.Results):
				errs[start+i] = fmt.Errorf("avscan: bulk response missing slot %d", i)
			case resp.Results[i].Error != "":
				errs[start+i] = fmt.Errorf("avscan: bulk %s %q: %s", label, chunk[i], resp.Results[i].Error)
			default:
				if err := json.Unmarshal(resp.Results[i].Result, &results[start+i]); err != nil {
					errs[start+i] = fmt.Errorf("avscan: decode bulk %s slot %d: %w", label, i, err)
				}
			}
		}
	}
	return results, errs
}

// Transparency queries the transparency report. blocked is true when the
// site refused the query (HTTP 403), mirroring the paper's inability to
// script half its URLs.
func (c *Client) Transparency(ctx context.Context, u string) (res TransparencyResult, blocked bool, err error) {
	err = c.API.GetJSON(ctx, "/transparency/report?url="+url.QueryEscape(u), &res)
	if netutil.IsStatus(err, http.StatusForbidden) {
		return TransparencyResult{URL: u}, true, nil
	}
	return res, false, err
}
