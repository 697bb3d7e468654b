package shard

import (
	"fmt"
	"sync"
	"testing"

	"github.com/smishkit/smishkit/internal/core"
)

// syntheticKeys returns n distinct domain-style keys. Balance and remap
// properties only show over many distinct keys — real batches concentrate
// on a few hot domains, which is the point of key affinity, not a ring
// defect.
func syntheticKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("d:evil-clinic-%d.example.xyz", i)
	}
	return keys
}

func TestNewRingRejectsBadShape(t *testing.T) {
	if _, err := NewRing(0, 0); err == nil {
		t.Error("NewRing(0, 0) accepted zero shards")
	}
	if _, err := NewRing(-3, 0); err == nil {
		t.Error("NewRing(-3, 0) accepted negative shards")
	}
	if _, err := NewRing(4, -1); err == nil {
		t.Error("NewRing(4, -1) accepted negative replicas")
	}
	r, err := NewRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.points); got != 4*DefaultReplicas {
		t.Errorf("replicas=0 built %d points, want %d (4*DefaultReplicas)", got, 4*DefaultReplicas)
	}
	if got := r.Shards(); got != 4 {
		t.Errorf("Shards() = %d, want 4", got)
	}
}

// TestRingBalance pins the distribution bound the DefaultReplicas choice
// buys: over many distinct keys, every shard's share stays within
// [0.5, 1.5] of the uniform mean.
func TestRingBalance(t *testing.T) {
	const shards, keys = 4, 20000
	r, err := NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for _, k := range syntheticKeys(keys) {
		counts[r.Shard(k)]++
	}
	mean := float64(keys) / shards
	for s, c := range counts {
		if f := float64(c); f < 0.5*mean || f > 1.5*mean {
			t.Errorf("shard %d holds %d of %d keys, outside [%.0f, %.0f] (counts: %v)",
				s, c, keys, 0.5*mean, 1.5*mean, counts)
		}
	}
}

// TestRingRemapOnResize pins consistency: growing N -> N+1 shards moves at
// most 2/(N+1) of the keys. (The expectation is ~1/(N+1) — the share the
// new shard captures; 2x is slack for hash variance. A modulo assignment
// would remap ~N/(N+1), so the bound cleanly separates the two.)
func TestRingRemapOnResize(t *testing.T) {
	keys := syntheticKeys(20000)
	for _, n := range []int{2, 4, 8} {
		before, err := NewRing(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		after, err := NewRing(n+1, 0)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, k := range keys {
			if before.Shard(k) != after.Shard(k) {
				moved++
			}
		}
		frac := float64(moved) / float64(len(keys))
		if limit := 2.0 / float64(n+1); frac > limit {
			t.Errorf("resize %d -> %d remapped %.3f of keys, want <= %.3f", n, n+1, frac, limit)
		}
		if moved == 0 {
			t.Errorf("resize %d -> %d remapped nothing: the new shard captured no keys", n, n+1)
		}
	}
}

// TestRingRoutingDeterminismConcurrent hammers one ring from many
// goroutines and checks every answer against a sequential baseline — run
// under -race this also proves the ring is read-only after construction.
func TestRingRoutingDeterminismConcurrent(t *testing.T) {
	r, err := NewRing(5, 64)
	if err != nil {
		t.Fatal(err)
	}
	keys := syntheticKeys(2000)
	want := make([]int, len(keys))
	for i, k := range keys {
		want[i] = r.Shard(k)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at a different offset so accesses
			// interleave rather than march in lockstep.
			for i := range keys {
				j := (i + g*251) % len(keys)
				if got := r.Shard(keys[j]); got != want[j] {
					select {
					case errs <- fmt.Sprintf("goroutine %d: key %q routed to %d, want %d", g, keys[j], got, want[j]):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestRingCrossInstanceDeterminism: two rings with identical shape must
// agree on every key — the multi-process mode relies on parent and worker
// computing the same assignment independently.
func TestRingCrossInstanceDeterminism(t *testing.T) {
	a, err := NewRing(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range syntheticKeys(5000) {
		if a.Shard(k) != b.Shard(k) {
			t.Fatalf("rings of identical shape disagree on %q: %d vs %d", k, a.Shard(k), b.Shard(k))
		}
	}
}

func TestKeyOf(t *testing.T) {
	cases := []struct {
		name string
		rec  core.Record
		want string
	}{
		{
			name: "domain wins over sender",
			rec: core.Record{
				ID:        "r1",
				SenderRaw: "+447700900123",
				ShownURL:  "https://Evil-Clinic.XYZ/login",
			},
			want: "d:evil-clinic.xyz",
		},
		{
			name: "sender fallback, trimmed and lowered",
			rec:  core.Record{ID: "r2", SenderRaw: "  EVILCO  "},
			want: "s:evilco",
		},
		{
			name: "record ID is the last resort",
			rec:  core.Record{ID: "r3"},
			want: "r:r3",
		},
		{
			name: "whitespace-only sender falls through to ID",
			rec:  core.Record{ID: "r4", SenderRaw: "   "},
			want: "r:r4",
		},
	}
	for _, tc := range cases {
		if got := KeyOf(&tc.rec); got != tc.want {
			t.Errorf("%s: KeyOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}
