package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the open-loop generator, so tests can drive
// the schedule without sleeping.
type clock interface {
	Now() time.Time
	// SleepUntil blocks until t or until ctx ends, reporting whether t was
	// reached.
	SleepUntil(ctx context.Context, t time.Time) bool
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// schedule returns n due times starting at t0, period apart. With jitter,
// each event moves by a uniform share of a period drawn from it (event k is
// due at t0 + (k+u)*period, u in [0,1)), which keeps the mean rate but stops
// the schedule from locking onto another periodic source: a query stream
// locked at a fixed phase to the wave stream would always land on the same
// part of a round.
func schedule(t0 time.Time, period time.Duration, n int, jitter *rand.Rand) []time.Time {
	out := make([]time.Time, n)
	for k := range out {
		off := time.Duration(k) * period
		if jitter != nil {
			off += time.Duration(jitter.Float64() * float64(period))
		}
		out[k] = t0.Add(off)
	}
	return out
}

// runOpenLoop fires one event per due time whatever earlier events cost: a
// slow event delays the next start, and the delay is counted as lateness
// rather than silently stretching the schedule. fire receives the event's
// index and due time, so callers time each event from when it was due. It
// returns every event's lateness in milliseconds, in order; the slice is
// short when ctx ends first.
func runOpenLoop(ctx context.Context, clk clock, dues []time.Time, fire func(k int, due time.Time)) []float64 {
	late := make([]float64, 0, len(dues))
	for k, due := range dues {
		if !clk.SleepUntil(ctx, due) {
			break
		}
		late = append(late, ms(clk.Now().Sub(due)))
		fire(k, due)
	}
	return late
}

// wavePlan is the open-loop wave schedule of one serve run: warm-up waves,
// which let the heap settle after set-up and are not measured, then the
// measured waves.
type wavePlan struct {
	t0    time.Time   // start of the measured phase: the first measured wave's due time
	dues  []time.Time // every wave's due time, warm-up first
	seeds []int64
	warm  int // leading warm-up waves
	msgs  int // messages, and so records, per wave
	det   *commitDetector
}

// planWaves schedules the waves of cfg from start, over base seeded
// records. Warm-up waves take seeds no measured wave uses, so the recurring
// campaigns of the serve workload still meet a cold cache once inside the
// measured phase.
func planWaves(cfg runConfig, base int, start time.Time) *wavePlan {
	sc := cfg.scale
	period := time.Duration(float64(time.Second) / sc.WaveRate)
	warm := int(sc.Warmup.Seconds() * sc.WaveRate)
	n := int(cfg.measure.Seconds() * sc.WaveRate)
	p := &wavePlan{
		t0:   start.Add(time.Duration(warm) * period),
		dues: schedule(start, period, warm+n, nil),
		warm: warm,
		msgs: sc.WaveMessages,
	}
	for k := 0; k < warm; k++ {
		p.seeds = append(p.seeds, cfg.seed*1_000_003+900_001+int64(k))
	}
	p.seeds = append(p.seeds, waveSeeds(cfg.seed, sc, n)...)
	per := make([]int, warm+n)
	for k := range per {
		per[k] = sc.WaveMessages
	}
	p.det = newCommitDetector(base, per)
	return p
}

// measured is the number of measured waves.
func (p *wavePlan) measured() int { return len(p.dues) - p.warm }

// total is every wave's records.
func (p *wavePlan) total() int { return len(p.dues) * p.msgs }

// generate injects every wave on schedule through inject, counting
// failures in errs, and returns the measured waves' lateness.
func (p *wavePlan) generate(ctx context.Context, inject func(seed int64, msgs int) error, errs *atomic.Int64) []float64 {
	late := runOpenLoop(ctx, realClock{}, p.dues, func(k int, _ time.Time) {
		if err := inject(p.seeds[k], p.msgs); err != nil {
			errs.Add(1)
		}
	})
	if len(late) <= p.warm {
		return nil
	}
	return late[p.warm:]
}

// fresh returns each committed measured wave's freshness (from its due
// time to its commit), how many measured waves committed, and when the
// last committed wave did.
func (p *wavePlan) fresh() ([]float64, int, time.Time) {
	commitAt, done := p.det.commits()
	var out []float64
	for k := p.warm; k < done; k++ {
		out = append(out, ms(commitAt[k].Sub(p.dues[k])))
	}
	end := p.t0
	if done > 0 {
		end = commitAt[done-1]
	}
	return out, max(done-p.warm, 0), end
}

// commitDetector decides when each injected wave is durable. Waves commit
// in injection order and wave k holds perWave[k] records, so wave k is
// complete once the deduplicated durable record count reaches base plus
// the records of waves 0..k. It deliberately ignores how many raw reports a
// round collected: a collector may return a post twice (Twitter's
// per-keyword since_id re-collects a post injected between two keyword
// searches), and the record log drops the repeat, so only the deduplicated
// count says what is durable.
type commitDetector struct {
	mu        sync.Mutex
	threshold []int       // durable count at which wave k is complete
	commitAt  []time.Time // when wave k was seen complete (zero until then)
	next      int         // first wave not yet complete
	reads     int         // how many times the durable count was read
	done      chan struct{}
}

func newCommitDetector(base int, perWave []int) *commitDetector {
	d := &commitDetector{
		threshold: make([]int, len(perWave)),
		commitAt:  make([]time.Time, len(perWave)),
		done:      make(chan struct{}),
	}
	sum := base
	for k, n := range perWave {
		sum += n
		d.threshold[k] = sum
	}
	if len(perWave) == 0 {
		close(d.done)
	}
	return d
}

// round folds one serve round. The durable count is read through count only
// when the round collected something, which keeps the read off the rounds
// that find nothing new.
func (d *commitDetector) round(newReports int, at time.Time, count func() int) {
	if newReports == 0 {
		return
	}
	c := count()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads++
	for d.next < len(d.threshold) && c >= d.threshold[d.next] {
		d.commitAt[d.next] = at
		d.next++
		if d.next == len(d.threshold) {
			close(d.done)
		}
	}
}

// commits returns each wave's commit time (zero for waves not yet complete)
// and how many waves are complete.
func (d *commitDetector) commits() ([]time.Time, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Time(nil), d.commitAt...), d.next
}
