// Livewatch drives the toolkit's service mode: instead of one batch sweep,
// the study runs as a daemon that polls the five forums on an interval,
// resumes each forum from a durable cursor, and keeps the paper's tables
// continuously up to date while new reports arrive. The simulation holds
// back part of its fixtures and releases them in waves, so every round
// actually observes fresh posts.
//
// Run it, watch the per-round log lines, and curl the printed status URL
// while it runs:
//
//	go run ./examples/livewatch
//	curl <status-url>/status
//	curl <status-url>/debug/telemetry
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/smishkit/smishkit"
)

func main() {
	log.SetFlags(0)

	// Durable cursors: delete the directory to start from scratch, keep it
	// to resume. A real deployment would point this at persistent disk.
	dir, err := os.MkdirTemp("", "livewatch-cursors-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := smishkit.NewFileCheckpoints(dir)
	if err != nil {
		log.Fatal(err)
	}

	study, err := smishkit.NewStudy(smishkit.Options{
		Seed:     2025,
		Messages: 1500,
		Cache:    &smishkit.CacheConfig{},
		Service: &smishkit.ServiceConfig{
			PollInterval: 500 * time.Millisecond,
			Checkpoints:  store,
			// Four waves of held-back reports arrive while we watch; stop
			// two rounds later so the last projection is visibly idle.
			LiveWaves: 4,
			MaxRounds: 6,
			OnRound: func(info smishkit.RoundInfo) {
				if info.Err != nil {
					log.Printf("round %d: %v", info.Round, info.Err)
					return
				}
				log.Printf("round %d: +%d new reports, %d records projected",
					info.Round, info.NewReports, info.Records)
			},
			// OnReady fires once the status endpoint is listening, with its
			// URL — no need to poll StatusURL. Sample it once mid-run to
			// show the live gauges.
			OnReady: func(statusURL string) {
				log.Printf("status endpoint: %s/status", statusURL)
				go func() {
					time.Sleep(1200 * time.Millisecond)
					resp, err := http.Get(statusURL + "/status")
					if err != nil {
						return
					}
					defer resp.Body.Close()
					var probe struct {
						Rounds         int     `json:"rounds"`
						Records        int     `json:"records"`
						BacklogSeconds float64 `json:"backlog_seconds"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&probe); err != nil {
						return
					}
					log.Printf("mid-run status: rounds=%d records=%d backlog=%.1fs",
						probe.Rounds, probe.Records, probe.BacklogSeconds)
				}()
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()

	// Ctrl-C drains the in-flight round and flushes the projection before
	// the final report prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ds, err := study.Serve(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ndaemon done: %d records across %d forums\n",
		len(ds.Records), len(ds.PostsByForum))

	// The unified stats surface: one snapshot, sections on demand.
	stats := study.Stats()
	if err := smishkit.WriteStats(os.Stdout, stats, smishkit.SectionService); err != nil {
		log.Fatal(err)
	}

	// And the paper's tables, computed from the live projection.
	if err := smishkit.WriteReport(os.Stdout, ds); err != nil {
		log.Fatal(err)
	}
}
