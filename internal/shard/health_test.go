package shard

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/smishkit/smishkit/internal/telemetry"
)

// probeTarget is an enricher whose health the test flips at will.
type probeTarget struct {
	markEnricher

	hmu  sync.Mutex
	herr error
}

func (p *probeTarget) Healthy(context.Context) error {
	p.hmu.Lock()
	defer p.hmu.Unlock()
	return p.herr
}

func (p *probeTarget) setHealth(err error) {
	p.hmu.Lock()
	p.herr = err
	p.hmu.Unlock()
}

func TestProberStateMachine(t *testing.T) {
	reg := telemetry.NewRegistry()
	targets := []*probeTarget{{}, {}}
	p := NewProber(2, ProbeConfig{}, reg)
	p.SetSource(func() []Enricher { return []Enricher{targets[0], targets[1]} })

	for i := 0; i < 2; i++ {
		if !p.Up(i) {
			t.Fatalf("shard %d not up initially", i)
		}
	}
	ctx := context.Background()

	// One failed probe marks the shard down.
	targets[1].setHealth(errors.New("unreachable"))
	p.ProbeOnce(ctx)
	if p.Up(1) {
		t.Fatal("shard 1 still up after a failed probe")
	}
	if p.Up(0) != true {
		t.Fatal("healthy shard 0 was marked down")
	}
	if got := p.Flaps(1); got != 1 {
		t.Errorf("Flaps(1) = %d, want 1", got)
	}
	snap := reg.Snapshot()
	if snap.Gauges["shard.1.health"] != 0 {
		t.Errorf("shard.1.health gauge = %v, want 0", snap.Gauges["shard.1.health"])
	}
	if snap.Gauges["shard.0.health"] != 1 {
		t.Errorf("shard.0.health gauge = %v, want 1", snap.Gauges["shard.0.health"])
	}

	// A single success marks it back up.
	targets[1].setHealth(nil)
	p.ProbeOnce(ctx)
	if !p.Up(1) {
		t.Fatal("shard 1 not back up after a successful probe")
	}
	if got := p.Flaps(1); got != 2 {
		t.Errorf("Flaps(1) = %d after recovery, want 2", got)
	}
	mask := p.AliveMask()
	if len(mask) != 2 || !mask[0] || !mask[1] {
		t.Errorf("AliveMask = %v, want all up", mask)
	}
}

func TestProberMarkDownMarkUp(t *testing.T) {
	p := NewProber(2, ProbeConfig{}, telemetry.NewRegistry())
	p.MarkDown(0)
	if p.Up(0) {
		t.Fatal("MarkDown did not take effect immediately")
	}
	if mask := p.AliveMask(); mask[0] || !mask[1] {
		t.Errorf("AliveMask = %v, want [false true]", mask)
	}
	p.MarkUp(0)
	if !p.Up(0) {
		t.Fatal("MarkUp did not take effect immediately")
	}
	if got := p.Flaps(0); got != 2 {
		t.Errorf("Flaps(0) = %d, want 2 (one down, one up)", got)
	}
	// Out-of-range indexes are ignored, not a panic.
	p.MarkDown(-1)
	p.MarkDown(99)
	p.MarkUp(-1)
	if p.Up(99) {
		t.Error("Up(out of range) reported true")
	}
}

func TestProberTreatsUnprobeableTargetsAsUp(t *testing.T) {
	// A target without the HealthChecker interface (a bare enricher) is
	// always up: the probe loop even recovers it from a forced MarkDown.
	p := NewProber(1, ProbeConfig{}, telemetry.NewRegistry())
	p.SetSource(func() []Enricher { return []Enricher{&markEnricher{}} })
	p.MarkDown(0)
	if p.Up(0) {
		t.Fatal("MarkDown ignored")
	}
	p.ProbeOnce(context.Background())
	if !p.Up(0) {
		t.Fatal("unprobeable target not restored to up by the probe loop")
	}
}
