package smishkit

import (
	"fmt"
	"io"
	"sort"

	"github.com/smishkit/smishkit/internal/batchmux"
	"github.com/smishkit/smishkit/internal/enrichcache"
	"github.com/smishkit/smishkit/internal/recordlog"
	"github.com/smishkit/smishkit/internal/resilience"
	"github.com/smishkit/smishkit/internal/shard"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Stats bundles every observable surface of a Study in one snapshot.
// Optional layers the study was built
// without are nil; Service is nil unless Serve has run.
type Stats struct {
	// Telemetry is the full metrics snapshot: stage spans, counters,
	// gauges, and latency histograms.
	Telemetry Telemetry
	// Cache is the enrichment cache scoreboard (nil without Options.Cache).
	Cache CacheStats
	// Batch is the batching-tier scoreboard (nil without Options.Batch):
	// the one set of batch windows every local shard shares, sharded or
	// not. Once remote shard workers serve the study, it is the sum of the
	// workers' own batching tiers.
	Batch BatchStats
	// Resilience is the circuit-breaker scoreboard (nil without
	// Options.Resilience).
	Resilience ResilienceStats
	// Service is the daemon scoreboard: rounds, committed reports,
	// projected records, and per-forum cursors (nil until Serve runs).
	Service *ServiceStats
	// Durability is the record log scoreboard: appends, replayed records,
	// dedup hits, snapshots, compactions, and damage counters (nil without
	// Options.Durability).
	Durability *DurabilityStats
	// Shards is the sharding scoreboard: routed totals and per-shard
	// cache/breaker stats (nil without Options.Shards), plus each remote
	// worker's own batch stats. When present, Cache/Resilience above are
	// nil — those tiers live inside the shards.
	Shards *ShardStats
}

// Stats snapshots every surface at once. Safe to call concurrently with
// Run or Serve, and after Close.
func (s *Study) Stats() Stats {
	st := Stats{Telemetry: s.Pipe.Telemetry().Snapshot()}
	gs := s.group.Stats()
	switch {
	case gs.PerShard[0].Remote:
		// Each worker process batches through its own windows, and this
		// process's sit idle.
		for _, row := range gs.PerShard {
			if row.Stack != nil {
				st.Batch = st.Batch.Add(row.Stack.Batch)
			}
		}
	case s.batch != nil:
		st.Batch = s.batch.Stats()
	}
	if s.opts.Shards != nil {
		st.Shards = &gs
	} else if sk := gs.PerShard[0].Stack; sk != nil {
		// Unsharded: the one stack's tiers are the study's tiers.
		st.Cache, st.Resilience = sk.Cache, sk.Resilience
	}
	if svc := s.svc; svc != nil {
		sv := svc.stats()
		st.Service = &sv
	}
	if s.rlog != nil {
		ds := s.rlog.Stats()
		st.Durability = &ds
	}
	return st
}

// StatsSection selects one part of a Stats snapshot for WriteStats.
type StatsSection string

// The sections WriteStats understands.
const (
	SectionTelemetry  StatsSection = "telemetry"
	SectionCache      StatsSection = "cache"
	SectionBatch      StatsSection = "batch"
	SectionResilience StatsSection = "resilience"
	SectionService    StatsSection = "service"
	SectionDurability StatsSection = "durability"
	SectionShards     StatsSection = "shards"
)

// allSections is the default render order.
var allSections = []StatsSection{
	SectionTelemetry, SectionCache, SectionBatch, SectionResilience, SectionShards, SectionService, SectionDurability,
}

// WriteStats renders the selected sections of a Stats snapshot as
// human-readable text, in the order given. With no sections it renders
// every section that carries data (absent layers are skipped silently; an
// explicitly requested absent section renders an "absent" note instead).
// An unknown section name is an error.
func WriteStats(w io.Writer, stats Stats, sections ...StatsSection) error {
	explicit := len(sections) > 0
	if !explicit {
		sections = allSections
	}
	for _, sec := range sections {
		switch sec {
		case SectionTelemetry:
			if err := telemetry.Write(w, stats.Telemetry); err != nil {
				return err
			}
		case SectionCache:
			if stats.Cache == nil {
				if explicit {
					fmt.Fprintln(w, "cache: absent (study built without Options.Cache)")
				}
				continue
			}
			if err := enrichcache.Write(w, stats.Cache); err != nil {
				return err
			}
		case SectionBatch:
			if stats.Batch == nil {
				if explicit {
					fmt.Fprintln(w, "batch: absent (study built without Options.Batch)")
				}
				continue
			}
			if err := batchmux.Write(w, stats.Batch); err != nil {
				return err
			}
		case SectionResilience:
			if stats.Resilience == nil {
				if explicit {
					fmt.Fprintln(w, "resilience: absent (study built without Options.Resilience)")
				}
				continue
			}
			if err := resilience.Write(w, stats.Resilience); err != nil {
				return err
			}
		case SectionService:
			if stats.Service == nil {
				if explicit {
					fmt.Fprintln(w, "service: absent (Serve has not run)")
				}
				continue
			}
			if err := writeServiceStats(w, *stats.Service); err != nil {
				return err
			}
		case SectionShards:
			if stats.Shards == nil {
				if explicit {
					fmt.Fprintln(w, "shards: absent (study built without Options.Shards)")
				}
				continue
			}
			if err := shard.Write(w, *stats.Shards); err != nil {
				return err
			}
		case SectionDurability:
			if stats.Durability == nil {
				if explicit {
					fmt.Fprintln(w, "durability: absent (study built without Options.Durability)")
				}
				continue
			}
			if err := recordlog.Write(w, *stats.Durability); err != nil {
				return err
			}
		default:
			return fmt.Errorf("smishkit: unknown stats section %q", sec)
		}
	}
	return nil
}

// writeServiceStats renders the daemon scoreboard as aligned text.
func writeServiceStats(w io.Writer, st ServiceStats) error {
	if _, err := fmt.Fprintf(w, "service (schema v%d)\n  rounds=%d reports=%d records=%d\n",
		st.SchemaVersion, st.Rounds, st.Reports, st.Records); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  throughput: reports_1m=%d injected=%d round p50=%.1fms p95=%.1fms p99=%.1fms (n=%d)\n",
		st.Reports1mTotal, st.InjectedPosts, st.RoundMS.P50, st.RoundMS.P95, st.RoundMS.P99, st.RoundMS.Count); err != nil {
		return err
	}
	if st.StatusURL != "" {
		if _, err := fmt.Fprintf(w, "  status: %s/status\n", st.StatusURL); err != nil {
			return err
		}
	}
	for _, src := range sourcesInOrder(st.Cursors) {
		cur := st.Cursors[src]
		if _, err := fmt.Fprintf(w, "  cursor %-12s offset=%-6d last=%-12q tokens=%d updated=%s\n",
			src, cur.Offset, cur.LastID, len(cur.Tokens), cur.Updated.Format("15:04:05")); err != nil {
			return err
		}
	}
	return nil
}

func sourcesInOrder(m map[string]Cursor) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
