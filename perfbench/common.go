package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"sort"
	"strings"

	"github.com/smishkit/smishkit"
)

// services are the six simulated intelligence APIs, by telemetry name.
var services = []string{"hlr", "whois", "ctlog", "dnsdb", "avscan", "shortener"}

// tiers are the enrichment tiers every workload runs with, the set
// BenchmarkShardedPipeline uses: cache, batching and breakers at their
// documented defaults.
func tiers(o *smishkit.Options) {
	o.Cache = &smishkit.CacheConfig{}
	o.Batch = &smishkit.BatchConfig{}
	o.Resilience = &smishkit.ResilienceConfig{}
}

// upstreamCalls sums the logical calls every client made to its service.
func upstreamCalls(snap smishkit.Telemetry) int64 {
	var n int64
	for _, svc := range services {
		n += snap.CounterValue("client." + svc + ".calls")
	}
	return n
}

// counterSum adds every counter whose name ends in suffix, so a figure
// counted per shard ("shard.<i>.<suffix>") and unsharded ("<suffix>") reads
// the same way.
func counterSum(snap smishkit.Telemetry, suffix string) int64 {
	var n int64
	for name, v := range snap.Counters {
		if name == suffix || strings.HasSuffix(name, "."+suffix) {
			n += v
		}
	}
	return n
}

// heapLiveMB is the live heap after a forced collection, in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// digest is an order-independent fingerprint of a dataset's records: each
// record (ID, curated and enriched fields, annotation) is hashed on its
// own, and the sorted hashes are hashed again, so two runs that produce the
// same records in any order agree.
func digest(ds *smishkit.Dataset) string {
	sums := make([]string, 0, len(ds.Records))
	for i := range ds.Records {
		buf, err := json.Marshal(&ds.Records[i])
		if err != nil {
			buf = []byte(ds.Records[i].ID)
		}
		h := sha256.Sum256(buf)
		sums = append(sums, string(h[:]))
	}
	sort.Strings(sums)
	h := sha256.New()
	for _, s := range sums {
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
