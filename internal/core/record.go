// Package core orchestrates the paper's full pipeline: collect raw reports
// from the five forums, extract SMS fields from screenshots and structured
// reports, curate (reject decoys, normalize), enrich through the HLR /
// WHOIS / CT-log / passive-DNS / AV-scan services and shortener expansion,
// annotate scam type / language / brand / lures, and hand the resulting
// records to the measurement layer. It also provides a Simulation that
// boots every substrate server from a synthetic world on loopback.
package core

import (
	"time"

	"github.com/smishkit/smishkit/internal/annotate"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/extract"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/senderid"
	"github.com/smishkit/smishkit/internal/whois"
)

// EnrichmentError records one enrichment field lost to a service failure.
// The record keeps every field that did resolve and the run keeps going;
// the error string survives JSON round-trips so degraded datasets stay
// auditable.
type EnrichmentError struct {
	Field   string `json:"field"`   // record field that was degraded (e.g. "whois")
	Service string `json:"service"` // telemetry name of the failing service
	Err     string `json:"err"`     // the failure, stringified
}

// Record is one fully curated, enriched, annotated smishing report — the
// unit every table and figure is computed from.
type Record struct {
	ID         string
	Forum      corpus.Forum
	PostedAt   time.Time
	FromImage  bool // extracted from a screenshot attachment
	Text       string
	SenderRaw  string
	SenderKind senderid.Kind
	Timestamp  extract.ParsedTime

	// URL facts.
	ShownURL  string // as it appeared in the text (may be shortened)
	FinalURL  string // after shortener expansion ("" if unresolvable)
	Shortener string // shortener service name ("" if none)
	Domain    string // registrable domain of the landing URL

	// Enrichment.
	HLR          hlr.Result // phone senders only (zero otherwise)
	HLRDone      bool
	Whois        whois.Record
	WhoisFound   bool
	CT           ctlog.Summary
	PDNS         []dnsdb.Observation
	ASNames      []string // resolved AS names for PDNS IPs
	ASCountries  []string
	VTMalicious  int // VirusTotal-style malicious count
	VTSuspicious int
	GSBMatched   bool
	GSBBlocked   bool // transparency site refused the query
	GSBStatus    string

	Annotation annotate.Annotation

	// EnrichmentErrors lists the fields lost to service failures during
	// enrichment (nil on a fully enriched record).
	EnrichmentErrors []EnrichmentError
}

// HasURL reports whether the record carries a usable URL.
func (r Record) HasURL() bool { return r.ShownURL != "" }

// Degraded reports whether any enrichment field was lost to a service
// failure.
func (r Record) Degraded() bool { return len(r.EnrichmentErrors) > 0 }

// Dataset is the curated corpus plus collection bookkeeping.
type Dataset struct {
	Records []Record
	// Collection stats for Table 1.
	PostsByForum  map[corpus.Forum]int // raw posts collected
	ImagesByForum map[corpus.Forum]int // image attachments collected
	// Curation stats.
	DecoysRejected int // attachments rejected as non-SMS
	EmptyDropped   int // reports with no recoverable text
}
