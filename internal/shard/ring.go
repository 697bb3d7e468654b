// Package shard partitions the measurement pipeline by stable enrichment
// key across N shard instances, each owning its own cache, breaker set
// and pipeline.
//
// The enrichment tiers split in two (NewStacks composes both). The process
// tiers — instrumented clients, fault injection and the batchmux windows —
// are built once per process; the shard tiers — cache, breakers and the
// enrichment pipeline — once per shard, above them. So N in-process shards
// share one set of batch windows, which fill at the process's record rate
// however the ring splits records, while a worker process owns the process
// tiers of its one shard.
//
// The paper's workload is embarrassingly partitionable: every enrichment
// service is keyed by the infrastructure a record points at (registrable
// domain, sender phone number, shortener host), so routing records with
// the same key to the same shard keeps the shards' caches disjoint: a
// per-shard cache holds what a shared one would. A consistent-hash ring
// makes the assignment stable: resizing from N to N+1 shards remaps only
// the keys the new shard captures (~1/(N+1) of them), not a full
// reshuffle.
//
// Determinism is the package's contract: records are curated once by a
// front pipeline, routed by key to per-shard enrichers that run
// concurrently, and scattered back into their curation-order slots — so
// shards=1 and shards=N produce record-identical output, and both match
// the unsharded barrier pipeline.
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/urlinfo"
)

// DefaultReplicas is the virtual-node count per shard when the caller does
// not say. 128 points per shard keeps the key distribution within a few
// tens of percent of uniform while the ring stays small enough to build in
// microseconds.
const DefaultReplicas = 128

// ringPoint is one virtual node: a position on the hash circle owned by a
// shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is an immutable consistent-hash ring over shard indexes 0..N-1.
// Safe for concurrent use: after construction it is never mutated.
type Ring struct {
	shards int
	points []ringPoint // sorted by hash
}

// NewRing builds a ring of n shards with the given virtual-node count per
// shard (0 selects DefaultReplicas).
func NewRing(shards, replicas int) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: ring needs at least one shard (got %d)", shards)
	}
	if replicas < 0 {
		return nil, fmt.Errorf("shard: replicas must not be negative (got %d)", replicas)
	}
	if replicas == 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*replicas)}
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			// The virtual-node label depends only on (shard, replica), never
			// on the total shard count — that independence is what bounds the
			// remap fraction on resize.
			label := "vn-" + strconv.Itoa(s) + "/" + strconv.Itoa(v)
			r.points = append(r.points, ringPoint{hash: hashKey(label), shard: s})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare with 64-bit FNV) break toward the
		// lower shard index so the ring stays deterministic.
		return r.points[a].shard < r.points[b].shard
	})
	return r, nil
}

// Shards returns the shard count the ring was built for.
func (r *Ring) Shards() int { return r.shards }

// Shard maps a key to its owning shard: the first virtual node at or after
// the key's hash, wrapping at the top of the circle.
func (r *Ring) Shard(key string) int {
	if r.shards == 1 {
		return 0
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// ShardAlive maps a key to its owning shard among the alive ones: the
// first virtual node at or after the key's hash whose shard is marked
// alive, wrapping at the top of the circle. With every shard alive it
// agrees with Shard exactly; with some down it is the "next-alive"
// failover mapping — keys owned by a dead shard slide forward to the next
// surviving virtual node, so each survivor absorbs roughly its
// proportional share (~1/(N-1) of the dead shard's keys each) instead of
// one neighbour absorbing everything. Returns -1 when no shard is alive.
// Like Shard, it is a pure function of (key, alive), so every caller —
// and every process — computes the same re-dispatch target.
func (r *Ring) ShardAlive(key string, alive []bool) int {
	any := false
	for s := 0; s < r.shards && s < len(alive); s++ {
		if alive[s] {
			any = true
			break
		}
	}
	if !any {
		return -1
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for off := 0; off < len(r.points); off++ {
		i := start + off
		if i >= len(r.points) {
			i -= len(r.points)
		}
		if s := r.points[i].shard; s < len(alive) && alive[s] {
			return s
		}
	}
	return -1
}

// hashKey is FNV-1a over the key bytes, pushed through a 64-bit avalanche
// finalizer. Raw FNV-1a leaves the upper bits poorly mixed on short inputs
// — sequential virtual-node labels then clump on the circle and shard
// shares drift far from uniform — so the finalizer (the murmur3 fmix64
// constants) spreads every input bit across the word. Allocation-free and
// a pure function of the key, so it is stable across processes: the
// multi-process mode relies on parent and workers routing identically.
func hashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// KeyOf returns a record's stable routing key: the registrable domain of
// the shown URL (lowercase, as urlinfo.Parse derives it) when the URL
// parses, else the sender ID, else the record's own ID. The prefixes keep
// the key spaces disjoint (a domain that happens to equal a phone number
// must not collide), mirroring the "d:"/"s:" key scheme of the campaign
// union-find.
//
// The key uses only fields curation fills in — never enrichment output —
// so routing is decided before any service call and is identical on every
// run and across process boundaries.
func KeyOf(rec *core.Record) string {
	if info, err := urlinfo.Parse(rec.ShownURL); err == nil {
		return "d:" + info.Domain
	}
	if s := strings.ToLower(strings.TrimSpace(rec.SenderRaw)); s != "" {
		return "s:" + s
	}
	return "r:" + rec.ID
}
