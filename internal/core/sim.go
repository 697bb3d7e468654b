package core

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/urlinfo"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/crawler"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/forum"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/malware"
	"github.com/smishkit/smishkit/internal/shortener"
	"github.com/smishkit/smishkit/internal/telemetry"
	"github.com/smishkit/smishkit/internal/whois"
)

// Simulation is a fully booted world: five forum servers, six intelligence
// services, the shortener redirect front end, and the scammer hosting —
// all listening on loopback, all seeded from one corpus.World.
type Simulation struct {
	World *World

	// Base URLs of every server.
	TwitterURL    string
	RedditURL     string
	SmishtankURL  string
	SmishingEUURL string
	PastebinURL   string
	SitesURL      string
	// DebugURL serves GET /debug/telemetry: a live JSON snapshot of the
	// simulation's telemetry registry.
	DebugURL string

	// TwitterBearer is the credential the Twitter collector needs.
	TwitterBearer string
	// Endpoints locates the six enrichment services (the shortener's also
	// serves the redirect front end) and carries their API keys.
	Endpoints Endpoints

	// Direct handles for case studies and tests.
	Sites    *crawler.SiteServer
	ShortSvc *shortener.Service
	AndroZoo *malware.HashDB

	// Forum server handles, used by ReleaseWave to publish held-back
	// fixtures while the daemon runs.
	TwitterSrv    *forum.TwitterServer
	RedditSrv     *forum.RedditServer
	SmishtankSrv  *forum.SmishtankServer
	SmishingEUSrv *forum.SmishingEUServer
	PastebinSrv   *forum.PastebinServer

	mu    sync.Mutex
	waves []*forum.Fixtures // fixture batches not yet published
	// Injection timeline: injected waves are re-stamped monotonically past
	// every fixture ever seeded (held-back waves included) so the forum
	// servers' append-only contract holds however generation and injection
	// interleave.
	injectAt    time.Time
	injectWaves int
	injected    int

	// Telemetry aggregates client and pipeline metrics; Services() wires
	// every enrichment client into it, and DebugURL exposes it over HTTP.
	Telemetry *telemetry.Registry

	servers   []*http.Server
	lns       []net.Listener
	closeOnce sync.Once
	closeErr  error
}

// World aliases the corpus ground truth for callers of the public facade.
type World = corpus.World

// SimConfig tunes how the simulation publishes its fixtures.
type SimConfig struct {
	// HoldbackWaves > 0 seeds the forums with half of the fixtures and
	// keeps the rest as that many chronological waves, released one at a
	// time via ReleaseWave — a live world for the service daemon. 0 (the
	// default) publishes everything up front.
	HoldbackWaves int
}

// StartSimulation generates (or accepts) a world and boots every server
// with a private telemetry registry.
func StartSimulation(w *corpus.World) (*Simulation, error) {
	return StartSimulationCfg(w, nil, SimConfig{})
}

// StartSimulationCfg boots every server recording into reg (a fresh
// registry when nil, so a facade can share one collector between the
// simulation's debug endpoint and the pipeline), with full control over
// fixture publication (see SimConfig).
func StartSimulationCfg(w *corpus.World, reg *telemetry.Registry, cfg SimConfig) (*Simulation, error) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	sim := &Simulation{
		World:         w,
		Telemetry:     reg,
		TwitterBearer: "sim-bearer",
		Endpoints: Endpoints{
			HLR:    Endpoint{Key: "sim-hlr"},
			Whois:  Endpoint{Key: "sim-whois"},
			DNSDB:  Endpoint{Key: "sim-dnsdb"},
			AVScan: Endpoint{Key: "sim-avscan"},
		},
	}

	fixtures := forum.BuildFixtures(w)
	sim.injectAt = forum.MaxCreatedAt(fixtures).Add(time.Second)
	if cfg.HoldbackWaves > 0 {
		fixtures, sim.waves = forum.SplitFixtures(fixtures, 0.5, cfg.HoldbackWaves)
	}

	// Intelligence stores seeded from ground truth.
	hlrStore := hlr.NewStore()
	for msisdn, s := range w.Numbers {
		status := hlr.StatusInactive
		if s.Live {
			status = hlr.StatusLive
		}
		hlrStore.Add(hlr.Record{
			MSISDN:      msisdn,
			NumberType:  s.NumberType,
			OriginalMNO: s.MNO,
			CurrentMNO:  s.MNO,
			Country:     s.Country,
			Status:      status,
		})
	}

	whoisStore := whois.NewStore()
	ctStore := ctlog.NewStore()
	dnsStore := dnsdb.NewStore()
	avStore := avscan.NewStore()
	sim.Sites = crawler.NewSiteServer()
	sim.AndroZoo = malware.NewHashDB()
	seedAndroZoo(sim.AndroZoo)

	registeredPrefix := map[int]bool{}
	for _, d := range w.Domains {
		if !d.FreeHost && d.Registrar != "" {
			whoisStore.Add(whois.Record{
				Domain:     d.Name,
				Registrar:  d.Registrar,
				Registered: d.Registered,
				Expires:    d.Registered.AddDate(1, 0, 0),
				NameServer: "ns1." + d.Name,
				Status:     "clientTransferProhibited",
			})
		}
		validity := 365 * 24 * time.Hour
		switch d.CA {
		case "Let's Encrypt", "cPanel", "Google Trust Services", "Cloudflare":
			validity = 90 * 24 * time.Hour
		}
		ctStore.IssueChain(d.Name, d.CA, ctlog.IssuerID(d.CA), d.FirstCert, validity, d.CertCount)
		for _, ip := range d.IPs {
			dnsStore.AddObservation(dnsdb.Observation{
				Domain:    d.Name,
				IP:        ip,
				FirstSeen: d.Registered,
				LastSeen:  d.Registered.Add(d.TakedownAfter),
			})
		}
		if d.ASN != 0 && !registeredPrefix[d.ASN] {
			registeredPrefix[d.ASN] = true
			prefix := corpus.ASNPrefix(d.ASN) // "a.b."
			cidr := prefix + "0.0/16"
			if err := dnsStore.AddPrefix(cidr, dnsdb.ASInfo{ASN: d.ASN, Name: d.ASName, Country: d.ASCountry}); err != nil {
				return nil, fmt.Errorf("core: register prefix %s: %w", cidr, err)
			}
		}
		avStore.SetDetectability(d.Name, d.Detectability)
		sim.Sites.Add(crawler.SiteBehavior{
			Domain:        d.Name,
			Brand:         brandForDomain(w, d.Name),
			ServesAPK:     d.ServesAPK,
			MalwareFamily: d.MalwareFamily,
		})
	}

	sim.ShortSvc = shortener.NewService()
	for _, l := range w.Links {
		sim.ShortSvc.Add(shortener.Link{
			Service:   l.Service,
			Code:      l.Code,
			Target:    l.Target,
			CreatedAt: l.CreatedAt,
			TakenDown: l.TakenDown,
		})
	}

	// Boot order mirrors dependency order; any failure tears down.
	boot := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = srv.Serve(ln) }()
		sim.servers = append(sim.servers, srv)
		sim.lns = append(sim.lns, ln)
		return "http://" + ln.Addr().String(), nil
	}
	var err error
	bootOrDie := func(h http.Handler) string {
		if err != nil {
			return ""
		}
		var url string
		url, err = boot(h)
		return url
	}
	sim.TwitterSrv = forum.NewTwitterServer(fixtures.Twitter, sim.TwitterBearer, 0)
	sim.RedditSrv = forum.NewRedditServer(fixtures.Reddit, 0)
	sim.SmishtankSrv = forum.NewSmishtankServer(fixtures.Smishtank)
	sim.SmishingEUSrv = forum.NewSmishingEUServer(fixtures.SmishingEU)
	sim.PastebinSrv = forum.NewPastebinServer(fixtures.Pastebin)
	sim.TwitterURL = bootOrDie(sim.TwitterSrv.Handler())
	sim.RedditURL = bootOrDie(sim.RedditSrv.Handler())
	sim.SmishtankURL = bootOrDie(sim.SmishtankSrv.Handler())
	sim.SmishingEUURL = bootOrDie(sim.SmishingEUSrv.Handler())
	sim.PastebinURL = bootOrDie(sim.PastebinSrv.Handler())
	ep := &sim.Endpoints
	ep.HLR.URL = bootOrDie(hlr.NewServer(hlrStore, ep.HLR.Key, 0).Handler())
	ep.Whois.URL = bootOrDie(whois.NewServer(whoisStore, ep.Whois.Key, 0).Handler())
	ep.CTLog.URL = bootOrDie(ctlog.NewServer(ctStore, 0).Handler())
	ep.DNSDB.URL = bootOrDie(dnsdb.NewServer(dnsStore, ep.DNSDB.Key, 0).Handler())
	ep.AVScan.URL = bootOrDie(avscan.NewServer(avStore, ep.AVScan.Key, 0).Handler())
	ep.Shortener.URL = bootOrDie(sim.ShortSvc.Handler())
	sim.SitesURL = bootOrDie(sim.Sites.Handler())
	sim.DebugURL = bootOrDie(telemetry.Handler(reg))
	if err != nil {
		_ = sim.Close()
		return nil, fmt.Errorf("core: boot simulation: %w", err)
	}
	return sim, nil
}

// Close shuts down every server and releases its listener. It is
// idempotent: the first call does the work and its (joined) error is
// returned by every subsequent call.
func (s *Simulation) Close() error {
	s.closeOnce.Do(func() {
		var errs []error
		for _, srv := range s.servers {
			if err := srv.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}

// Collectors returns ready-to-run collectors for all five forums.
func (s *Simulation) Collectors() []forum.Collector {
	return []forum.Collector{
		forum.NewTwitterCollector(s.TwitterURL, s.TwitterBearer),
		forum.NewRedditCollector(s.RedditURL),
		forum.NewSmishtankCollector(s.SmishtankURL),
		forum.NewSmishingEUCollector(s.SmishingEUURL),
		forum.NewPastebinCollector(s.PastebinURL),
	}
}

// ReleaseWave publishes the next held-back fixture wave to all five forum
// servers, modelling new user reports arriving while the daemon polls. It
// reports whether a wave was released (false once all waves are out).
func (s *Simulation) ReleaseWave() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waves) == 0 {
		return false
	}
	wv := s.waves[0]
	s.waves = s.waves[1:]
	if s.injectWaves > 0 {
		// Injected posts already advanced the timeline past this wave's
		// original timestamps; re-stamp it onto the injection timeline (IDs
		// untouched — held-back fixtures are unique by construction) so the
		// servers' at-or-after append contract keeps holding.
		s.injectAt = forum.Rebase(wv, "", s.injectAt, time.Millisecond)
	}
	s.appendLocked(wv)
	return true
}

// appendLocked publishes one fixture batch to all five forum servers.
// Callers hold s.mu.
func (s *Simulation) appendLocked(f *forum.Fixtures) {
	s.TwitterSrv.Append(f.Twitter)
	s.RedditSrv.Append(f.Reddit)
	s.SmishtankSrv.Append(f.Smishtank)
	s.SmishingEUSrv.Append(f.SmishingEU)
	s.PastebinSrv.Append(f.Pastebin)
}

// InjectSpec describes one synthetic report wave for load injection: a
// deterministic mini-world generated from Seed whose posts are appended to
// the live forum servers, exactly as if that many users had just reported.
type InjectSpec struct {
	// Seed drives the wave's world generation. Reusing a seed republishes
	// equivalent content under fresh post IDs — IDs are namespaced per
	// injection, so cursors never see duplicates.
	Seed int64 `json:"seed"`
	// Messages is the wave's synthetic report count (1..MaxInjectMessages).
	Messages int `json:"messages"`
	// Forums restricts the wave to a subset of the five sources (checkpoint
	// source names); empty means all five, in the paper's mix.
	Forums []string `json:"forums,omitempty"`
	// NoiseFraction is the wave's decoy share — keyword-matching awareness
	// posts curation must reject — as a fraction of real reports (0 selects
	// the generator default of 0.12).
	NoiseFraction float64 `json:"noise_fraction,omitempty"`
}

// MaxInjectMessages bounds one injected wave; sustained load is repeated
// waves.
const MaxInjectMessages = 50000

// Inject synthesizes the wave described by spec and appends its posts to
// the live forum servers. The posts are re-stamped past every previously
// published fixture and their IDs are namespaced by an injection counter,
// so live collection cursors observe them exactly like genuinely new user
// reports. Returns the number of posts appended (reports plus noise).
func (s *Simulation) Inject(spec InjectSpec) (int, error) {
	if spec.Messages <= 0 || spec.Messages > MaxInjectMessages {
		return 0, fmt.Errorf("core: inject: Messages must be in [1,%d] (got %d)", MaxInjectMessages, spec.Messages)
	}
	if spec.NoiseFraction < 0 || spec.NoiseFraction > 1 {
		return 0, fmt.Errorf("core: inject: NoiseFraction must be in [0,1] (got %v)", spec.NoiseFraction)
	}
	keep := make(map[string]bool, len(spec.Forums))
	for _, name := range spec.Forums {
		valid := false
		for _, src := range forum.Sources {
			if name == src {
				valid = true
				break
			}
		}
		if !valid {
			return 0, fmt.Errorf("core: inject: unknown forum %q (valid: %v)", name, forum.Sources)
		}
		keep[name] = true
	}

	w := corpus.Generate(corpus.Config{
		Seed:          spec.Seed,
		Messages:      spec.Messages,
		NoiseFraction: spec.NoiseFraction,
	})
	wave := forum.BuildFixtures(w)
	if len(keep) > 0 {
		wave = forum.Filter(wave, keep)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.injectWaves++
	prefix := fmt.Sprintf("inj%d-", s.injectWaves)
	s.injectAt = forum.Rebase(wave, prefix, s.injectAt, time.Millisecond)
	s.appendLocked(wave)
	n := wave.Len()
	s.injected += n
	s.Telemetry.Counter("sim.injected_posts").Add(int64(n))
	s.Telemetry.Counter("sim.injected_waves").Inc()
	return n, nil
}

// InjectedPosts reports how many posts Inject has appended in total.
func (s *Simulation) InjectedPosts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// Services returns enrichment clients wired to the simulation's servers,
// each instrumented into the simulation's telemetry registry.
func (s *Simulation) Services() Services { return s.Endpoints.Services(s.Telemetry) }

// CrawlRouter returns a crawler Router that dispatches logical smishing
// URLs onto the simulation's shortener and hosting servers.
func (s *Simulation) CrawlRouter() *crawler.Router {
	hosts := make(map[string]bool, len(urlShortenerHosts))
	for h := range urlShortenerHosts {
		hosts[h] = true
	}
	return &crawler.Router{
		ShortenerBase:  s.Endpoints.Shortener.URL,
		ShortenerHosts: hosts,
		SiteBase:       s.SitesURL,
	}
}

// brandForDomain recovers the impersonated brand of a domain's campaign.
func brandForDomain(w *corpus.World, domain string) string {
	for _, c := range w.Campaigns {
		for _, d := range c.Domains {
			if d == domain {
				return c.Brand
			}
		}
	}
	return "Secure Portal"
}

// seedAndroZoo fills the hash registry with "previously known" apps so
// lookups exercise both hit and miss paths. Fresh smishing droppers are
// absent by construction (§3.3.5 found none of its 18 hashes).
func seedAndroZoo(db *malware.HashDB) {
	for i := 0; i < 500; i++ {
		payload := []byte(fmt.Sprintf("known-app-%d", i))
		family := ""
		if i%5 == 0 {
			family = []string{"FluBot", "MoqHao", "HQWar"}[i%3]
		}
		db.Add(malware.Sample{
			SHA256:  malware.HashBytes(payload),
			Package: fmt.Sprintf("com.example.app%d", i),
			Size:    1000 + i,
			Family:  family,
		})
	}
}

// urlShortenerHosts mirrors urlinfo.Shorteners for router construction.
var urlShortenerHosts = shortenerHostSet()

func shortenerHostSet() map[string]bool {
	out := make(map[string]bool, len(urlinfo.Shorteners))
	for host := range urlinfo.Shorteners {
		out[host] = true
	}
	return out
}

// EnableTakedownSchedule re-anchors every hosted domain's takedown to a
// virtual timeline starting at start and installs clock as the site
// server's time source. Use with internal/monitor to measure URL lifespans
// without waiting real days.
func (s *Simulation) EnableTakedownSchedule(start time.Time, clock func() time.Time) {
	for _, d := range s.World.Domains {
		s.Sites.Add(crawler.SiteBehavior{
			Domain:        d.Name,
			Brand:         brandForDomain(s.World, d.Name),
			ServesAPK:     d.ServesAPK,
			MalwareFamily: d.MalwareFamily,
			DownAt:        start.Add(d.TakedownAfter),
		})
	}
	s.Sites.SetClock(clock)
}
