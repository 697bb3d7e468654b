package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeWorkerCtl lets a test kill the fake worker a starter handed out.
type fakeWorkerCtl struct {
	exited chan error
	once   sync.Once
}

func (c *fakeWorkerCtl) kill(err error) {
	c.once.Do(func() {
		c.exited <- err
		close(c.exited)
	})
}

// fakeStarter builds goroutine-backed worker handles and remembers the
// controls so the test can kill any incarnation.
type fakeStarter struct {
	mu     sync.Mutex
	starts int
	live   map[int]*fakeWorkerCtl
	fail   map[int]error // index -> error returned instead of a handle
}

func newFakeStarter() *fakeStarter {
	return &fakeStarter{live: make(map[int]*fakeWorkerCtl), fail: make(map[int]error)}
}

func (f *fakeStarter) start(_ context.Context, index int) (WorkerHandle, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.fail[index]; err != nil {
		return WorkerHandle{}, err
	}
	f.starts++
	ctl := &fakeWorkerCtl{exited: make(chan error, 1)}
	f.live[index] = ctl
	return WorkerHandle{
		URL:    fmt.Sprintf("http://fake-%d-gen%d", index, f.starts),
		Exited: ctl.exited,
		Stop:   func() { ctl.kill(nil) },
	}, nil
}

func (f *fakeStarter) kill(index int, err error) {
	f.mu.Lock()
	ctl := f.live[index]
	f.mu.Unlock()
	if ctl != nil {
		ctl.kill(err)
	}
}

func fastSupervisorConfig() SupervisorConfig {
	return SupervisorConfig{InitialBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSupervisorRestartsDeadWorker(t *testing.T) {
	starter := newFakeStarter()
	var (
		mu        sync.Mutex
		reregs    []string
		reregIdxs []int
	)
	cfg := fastSupervisorConfig()
	cfg.OnRestart = func(index int, url string) error {
		mu.Lock()
		reregs = append(reregs, url)
		reregIdxs = append(reregIdxs, index)
		mu.Unlock()
		return nil
	}
	sup, err := NewSupervisor(2, starter.start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	urls, err := sup.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 2 || urls[0] == urls[1] {
		t.Fatalf("Start returned %v", urls)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); sup.Run(ctx) }()

	starter.kill(0, errors.New("worker crashed"))
	// The restart is counted before OnRestart runs, so wait for both.
	waitFor(t, "worker 0 restart", func() bool {
		mu.Lock()
		n := len(reregs)
		mu.Unlock()
		return n > 0 && sup.Restarts()[0] == 1
	})
	mu.Lock()
	gotReregs, gotIdxs := len(reregs), append([]int(nil), reregIdxs...)
	var newURL string
	if gotReregs > 0 {
		newURL = reregs[0]
	}
	mu.Unlock()
	if gotReregs != 1 || gotIdxs[0] != 0 {
		t.Fatalf("OnRestart calls: %d for indexes %v, want one for index 0", gotReregs, gotIdxs)
	}
	if newURL == urls[0] {
		t.Errorf("restarted worker reused the old URL %q", newURL)
	}
	if sup.Restarts()[1] != 0 {
		t.Errorf("worker 1 restarted %d times, want 0", sup.Restarts()[1])
	}
	if sup.GaveUp(0) {
		t.Error("worker 0 marked given up after a successful restart")
	}

	cancel()
	<-runDone
	sup.Stop()
}

func TestSupervisorGivesUpAfterBudget(t *testing.T) {
	// Every incarnation dies instantly: the supervisor must stop retrying
	// after MaxRestarts instead of spinning forever.
	var mu sync.Mutex
	starts := 0
	start := func(context.Context, int) (WorkerHandle, error) {
		mu.Lock()
		starts++
		n := starts
		mu.Unlock()
		exited := make(chan error, 1)
		exited <- errors.New("instant death")
		close(exited)
		return WorkerHandle{URL: fmt.Sprintf("http://dead-%d", n), Exited: exited, Stop: func() {}}, nil
	}
	cfg := fastSupervisorConfig()
	cfg.MaxRestarts = 3
	sup, err := NewSupervisor(1, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() { defer close(runDone); sup.Run(ctx) }()
	// Run returns on its own once the only worker is abandoned.
	select {
	case <-runDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after the restart budget was exhausted")
	}
	if !sup.GaveUp(0) {
		t.Error("GaveUp(0) = false after budget exhaustion")
	}
	if got := sup.Restarts()[0]; got != 3 {
		t.Errorf("Restarts()[0] = %d, want 3", got)
	}
}

func TestSupervisorAbandonsOnRestartRejection(t *testing.T) {
	starter := newFakeStarter()
	cfg := fastSupervisorConfig()
	cfg.OnRestart = func(int, string) error { return errors.New("health check failed") }
	sup, err := NewSupervisor(1, starter.start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() { defer close(runDone); sup.Run(ctx) }()
	starter.kill(0, errors.New("crash"))
	select {
	case <-runDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after re-registration was rejected")
	}
	if !sup.GaveUp(0) {
		t.Error("GaveUp(0) = false after OnRestart rejection")
	}
}

func TestSupervisorStartFailureStopsStartedWorkers(t *testing.T) {
	starter := newFakeStarter()
	starter.fail[1] = errors.New("no port")
	sup, err := NewSupervisor(2, starter.start, fastSupervisorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Start(context.Background()); err == nil {
		t.Fatal("Start succeeded with a failing worker")
	}
	// Worker 0 was started before worker 1 failed; Start's cleanup must
	// have stopped it (its Exited channel is closed by kill(nil)).
	starter.mu.Lock()
	ctl := starter.live[0]
	starter.mu.Unlock()
	select {
	case <-ctl.exited:
	case <-time.After(time.Second):
		t.Fatal("worker 0 not stopped after Start failure")
	}
}

func TestSupervisorValidation(t *testing.T) {
	if _, err := NewSupervisor(0, func(context.Context, int) (WorkerHandle, error) {
		return WorkerHandle{}, nil
	}, SupervisorConfig{}); err == nil {
		t.Error("NewSupervisor accepted zero workers")
	}
	if _, err := NewSupervisor(1, nil, SupervisorConfig{}); err == nil {
		t.Error("NewSupervisor accepted a nil starter")
	}
}
