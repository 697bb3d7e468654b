package smishkit

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// startTestWorkers launches n shard workers as goroutines (the same
// RunShardWorker seam smishctl's -shard-worker mode uses) and returns
// their URLs plus a per-worker kill switch. The cleanup stops survivors.
func startTestWorkers(t *testing.T, study *Study, n int) (urls []string, kill []context.CancelFunc) {
	t.Helper()
	urls = make([]string, n)
	kill = make([]context.CancelFunc, n)
	var wg sync.WaitGroup
	t.Cleanup(func() {
		for _, k := range kill {
			k()
		}
		wg.Wait()
	})
	for i := 0; i < n; i++ {
		spec, err := json.Marshal(study.ShardWorkerSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		wctx, cancel := context.WithCancel(context.Background())
		kill[i] = cancel
		pr, pw := io.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pw.Close()
			_ = RunShardWorker(wctx, bytes.NewReader(spec), pw)
		}()
		line, err := bufio.NewReader(pr).ReadString('\n')
		if err != nil {
			t.Fatalf("worker %d printed no URL: %v", i, err)
		}
		urls[i] = strings.TrimSpace(line)
	}
	return urls, kill
}

// TestShardFailoverDeterminism is the lifecycle layer's acceptance test:
// kill one of three workers, and the round must still complete — with the
// dead shard's records re-dispatched to survivors — producing a dataset
// and /query/summary byte-identical to the unsharded baseline.
func TestShardFailoverDeterminism(t *testing.T) {
	baseline := runStudy(t, nil)

	const shards = 3
	study, err := NewStudy(Options{Seed: 7, Messages: 600, Shards: &ShardConfig{
		Shards:   shards,
		Failover: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	urls, kill := startTestWorkers(t, study, shards)
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ccancel()
	if err := study.ConnectShardWorkers(cctx, urls); err != nil {
		t.Fatal(err)
	}

	// Kill worker 1 before the round: its dispatch fails (connection
	// refused), the group marks it down, and its routed subset slides to
	// the ring's next-alive shards.
	kill[1]()

	ds, err := study.Run(context.Background())
	if err != nil {
		t.Fatalf("Run did not survive one dead worker of three: %v", err)
	}
	raw, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseline, raw) {
		t.Error("failover dataset differs from unsharded baseline")
	}
	if s0, s1 := summaryBytes(t, baseline), summaryBytes(t, raw); !bytes.Equal(s0, s1) {
		t.Errorf("/query/summary diverges after failover:\n%s\n----\n%s", s0, s1)
	}

	st := study.Stats().Shards
	if st == nil {
		t.Fatal("Stats().Shards nil")
	}
	if !st.Failover {
		t.Error("Stats().Shards.Failover = false with Shards.Failover on")
	}
	if st.Redispatched == 0 {
		t.Error("Stats().Shards.Redispatched = 0 after a worker died mid-round")
	}
	if st.PerShard[1].Failures == 0 {
		t.Error("dead shard 1 shows zero failures")
	}
	if h := st.PerShard[1].Healthy; h == nil || *h {
		t.Error("dead shard 1 not reported unhealthy")
	}
	if h := st.PerShard[0].Healthy; h == nil || !*h {
		t.Error("surviving shard 0 not reported healthy")
	}
}

// TestShardSupervisorRestart pins the supervisor loop end to end: a killed
// worker is restarted with a fresh URL, re-registered with the routing
// group (Stats().Shards counts the restart), and the next round runs through
// the new worker, byte-identical to the unsharded baseline.
func TestShardSupervisorRestart(t *testing.T) {
	baseline := runStudy(t, nil)

	const shards = 2
	study, err := NewStudy(Options{Seed: 7, Messages: 600, Shards: &ShardConfig{
		Shards:   shards,
		Failover: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	// Goroutine-backed starter: each incarnation is a RunShardWorker
	// goroutine with its own cancel, exactly what smishctl does with
	// processes.
	var (
		mu    sync.Mutex
		stops = make(map[int]context.CancelFunc)
	)
	starter := func(_ context.Context, index int) (ShardWorkerHandle, error) {
		spec, err := json.Marshal(study.ShardWorkerSpec(index))
		if err != nil {
			return ShardWorkerHandle{}, err
		}
		wctx, stop := context.WithCancel(context.Background())
		pr, pw := io.Pipe()
		exited := make(chan error, 1)
		go func() {
			err := RunShardWorker(wctx, bytes.NewReader(spec), pw)
			pw.Close()
			exited <- err
			close(exited)
		}()
		line, err := bufio.NewReader(pr).ReadString('\n')
		if err != nil {
			stop()
			return ShardWorkerHandle{}, fmt.Errorf("worker %d printed no URL: %w", index, err)
		}
		mu.Lock()
		stops[index] = stop
		mu.Unlock()
		return ShardWorkerHandle{URL: strings.TrimSpace(line), Exited: exited, Stop: stop}, nil
	}

	sup, err := study.StartShardSupervisor(context.Background(), starter, ShardSupervisorConfig{
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancelRun := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); sup.Run(runCtx) }()
	defer func() {
		cancelRun()
		<-runDone
		sup.Stop()
	}()

	// Kill worker 0; the supervisor restarts it and re-registers the new
	// URL before the round below runs.
	mu.Lock()
	stops[0]()
	mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := study.Stats().Shards; st != nil && st.PerShard[0].Restarts == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker 0 never restarted; stats: %+v", study.Stats().Shards)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := sup.Restarts()[0]; got != 1 {
		t.Errorf("supervisor restarts[0] = %d, want 1", got)
	}
	if sup.GaveUp(0) {
		t.Error("supervisor gave up on worker 0 after one restart")
	}

	// The round runs through the restarted worker's fresh URL.
	ds, err := study.Run(context.Background())
	if err != nil {
		t.Fatalf("Run after restart: %v", err)
	}
	raw, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseline, raw) {
		t.Error("post-restart dataset differs from unsharded baseline")
	}
	st := study.Stats().Shards
	if st.PerShard[0].Restarts != 1 {
		t.Errorf("shard 0 restarts = %d, want 1", st.PerShard[0].Restarts)
	}
	if h := st.PerShard[0].Healthy; h == nil || !*h {
		t.Error("restarted shard 0 not reported healthy")
	}
}

func TestShardFailoverConfigValidation(t *testing.T) {
	bad := []Options{
		{Shards: &ShardConfig{Shards: 2, ProbeInterval: time.Second}}, // probe knob without Failover
		{Shards: &ShardConfig{Shards: 2, Failover: true, ProbeInterval: -time.Second}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o.Shards)
		}
	}
	ok := Options{Shards: &ShardConfig{Shards: 2, Failover: true, ProbeInterval: 500 * time.Millisecond}}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected a sane failover config: %v", err)
	}
	// A supervisor needs a sharded study.
	plain, err := NewStudy(Options{Seed: 2, Messages: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.StartShardSupervisor(context.Background(), func(context.Context, int) (ShardWorkerHandle, error) {
		return ShardWorkerHandle{}, nil
	}, ShardSupervisorConfig{}); err == nil {
		t.Error("StartShardSupervisor accepted an unsharded study")
	}
}
