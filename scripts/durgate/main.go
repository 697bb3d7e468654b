// Command durgate is the CI durability gate: it proves, against the real
// smishctl binary, that SIGKILL costs the daemon nothing it had committed.
//
//	go run ./scripts/durgate [-out DIR] [-smishctl BIN]
//
// The sequence:
//
//  1. boot `smishctl -serve -data-dir` on a fresh data directory,
//  2. inject a synthetic wave through POST /inject,
//  3. wait until the daemon is quiescent (the /query/summary record count
//     is stable across several polls),
//  4. snapshot GET /query/summary, then SIGKILL the daemon — no drain, no
//     final snapshot, exactly the crash the record log exists for,
//  5. restart from the same data directory and wait for it to serve,
//  6. fail unless the restarted /query/summary matches the pre-kill
//     snapshot exactly AND /debug/telemetry shows zero backend enrichment
//     calls (client.<svc>.calls) in the restarted process.
//
// Exit 0 on pass, 1 on any failure. The data directory and both daemon
// logs are left under -out for artifact upload.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// enrichmentServices are the backends the restarted daemon must never
// call: replayed records were enriched by the process that was killed.
var enrichmentServices = []string{"hlr", "whois", "ctlog", "dnsdb", "avscan", "shortener"}

const (
	worldSeed     = 11
	worldMessages = 1500
	injectSeed    = 7
	injectCount   = 300
	pollEvery     = 300 * time.Millisecond
	// stablePolls is how many consecutive unchanged record counts mean
	// "quiescent" — with a 150ms daemon poll interval this spans many
	// collection rounds.
	stablePolls = 8
	settleMax   = 3 * time.Minute
)

func main() {
	out := flag.String("out", "bench/durgate", "artifact directory (data dir + daemon logs)")
	bin := flag.String("smishctl", "", "smishctl binary (default: build into -out)")
	flag.Parse()
	if err := run(*out, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "durability-gate: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("durability-gate: PASS")
}

func run(out, bin string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dataDir := filepath.Join(out, "data")
	if err := os.RemoveAll(dataDir); err != nil {
		return fmt.Errorf("reset data dir: %w", err)
	}
	if bin == "" {
		bin = filepath.Join(out, "smishctl")
		fmt.Println("== building smishctl")
		build := exec.Command("go", "build", "-o", bin, "./cmd/smishctl")
		build.Stdout, build.Stderr = os.Stdout, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build smishctl: %w", err)
		}
	}

	// Phase 1: boot, inject, settle, snapshot, SIGKILL.
	fmt.Println("== phase 1: boot + inject + settle + SIGKILL")
	d1, err := startDaemon(bin, dataDir, filepath.Join(out, "daemon1.log"), filepath.Join(out, "status1"))
	if err != nil {
		return err
	}
	defer d1.kill()
	if err := inject(d1.url); err != nil {
		return fmt.Errorf("inject: %w", err)
	}
	preRecords, err := settle(d1.url)
	if err != nil {
		return fmt.Errorf("settle before kill: %w", err)
	}
	if preRecords == 0 {
		return fmt.Errorf("daemon settled with zero records; nothing to prove")
	}
	preSummary, err := canonicalSummary(d1.url)
	if err != nil {
		return fmt.Errorf("pre-kill summary: %w", err)
	}
	fmt.Printf("== pre-kill: %d records committed; sending SIGKILL\n", preRecords)
	if err := d1.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	_ = d1.cmd.Wait()

	// Phase 2: restart from the same data dir; it must serve the identical
	// summary without a single enrichment call.
	fmt.Println("== phase 2: restart from the same -data-dir")
	d2, err := startDaemon(bin, dataDir, filepath.Join(out, "daemon2.log"), filepath.Join(out, "status2"))
	if err != nil {
		return err
	}
	defer d2.kill()
	if err := waitForRecords(d2.url, preRecords); err != nil {
		return fmt.Errorf("restarted daemon never reached %d records: %w", preRecords, err)
	}
	postSummary, err := canonicalSummary(d2.url)
	if err != nil {
		return fmt.Errorf("post-restart summary: %w", err)
	}
	if preSummary != postSummary {
		return fmt.Errorf("summary diverged across SIGKILL+restart:\n pre:  %s\n post: %s", preSummary, postSummary)
	}
	if err := assertZeroEnrichment(d2.url); err != nil {
		return err
	}
	fmt.Printf("== post-restart: summary identical (%d records), zero enrichment calls\n", preRecords)
	return nil
}

// daemon is one running smishctl -serve process.
type daemon struct {
	cmd *exec.Cmd
	url string
	log *os.File
}

func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
	}
	_ = d.log.Close()
}

// startDaemon boots smishctl -serve -data-dir and waits for its status
// URL. LiveWaves are disabled: holdback waves released after injections
// land on the injection timeline, which a restarted simulation replays in
// a different order than the original cursors consumed.
func startDaemon(bin, dataDir, logPath, statusPath string) (*daemon, error) {
	_ = os.Remove(statusPath)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-serve",
		"-seed", fmt.Sprint(worldSeed),
		"-messages", fmt.Sprint(worldMessages),
		"-live-waves", "0",
		"-poll-interval", "150ms",
		"-data-dir", dataDir,
		"-status-file", statusPath,
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if data, err := os.ReadFile(statusPath); err == nil && len(data) > 0 {
			return &daemon{cmd: cmd, url: strings.TrimSpace(string(data)), log: logf}, nil
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			logf.Close()
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("daemon never published a status URL; log:\n%s", tail)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func inject(base string) error {
	body := fmt.Sprintf(`{"seed": %d, "messages": %d}`, injectSeed, injectCount)
	resp, err := http.Post(base+"/inject", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return fmt.Errorf("POST /inject: status %d: %s", resp.StatusCode, buf.String())
	}
	return nil
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

type summary struct {
	Records int `json:"records"`
}

// settle waits until the daemon is quiescent: the summary record count is
// stable for stablePolls consecutive polls (a round's records are
// queryable by the time the round ends). Returns the settled count. A
// SIGKILL landing after this point interrupts nothing mid-enrichment, so
// every committed record must survive.
func settle(base string) (int, error) {
	deadline := time.Now().Add(settleMax)
	last, stable := -1, 0
	for time.Now().Before(deadline) {
		var s summary
		if err := getJSON(base+"/query/summary", &s); err != nil {
			return 0, err
		}
		if s.Records == last && s.Records > 0 {
			stable++
			if stable >= stablePolls {
				return s.Records, nil
			}
		} else {
			stable = 0
		}
		last = s.Records
		time.Sleep(pollEvery)
	}
	return 0, fmt.Errorf("record count never stabilized (last %d)", last)
}

// waitForRecords polls until the summary reports exactly want records.
func waitForRecords(base string, want int) error {
	deadline := time.Now().Add(settleMax)
	last := -1
	for time.Now().Before(deadline) {
		var s summary
		if err := getJSON(base+"/query/summary", &s); err == nil {
			if s.Records == want {
				return nil
			}
			if s.Records > want {
				return fmt.Errorf("overshot: %d records, want %d — the replay double-counted", s.Records, want)
			}
			last = s.Records
		}
		time.Sleep(pollEvery)
	}
	return fmt.Errorf("timed out at %d records", last)
}

// canonicalSummary fetches /query/summary and re-marshals it so pre/post
// comparison is insensitive to HTTP-level formatting.
func canonicalSummary(base string) (string, error) {
	var raw json.RawMessage
	if err := getJSON(base+"/query/summary", &raw); err != nil {
		return "", err
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", err
	}
	out, err := json.Marshal(v)
	return string(out), err
}

// assertZeroEnrichment reads /debug/telemetry counters and fails on any
// backend client call in this (restarted) process.
func assertZeroEnrichment(base string) error {
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := getJSON(base+"/debug/telemetry", &snap); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	var bad []string
	for _, svc := range enrichmentServices {
		if n := snap.Counters["client."+svc+".calls"]; n != 0 {
			bad = append(bad, fmt.Sprintf("client.%s.calls=%d", svc, n))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("restarted daemon re-enriched: %s", strings.Join(bad, " "))
	}
	if replayed := snap.Counters["recordlog.replayed"]; replayed == 0 {
		return fmt.Errorf("recordlog.replayed is 0 — the restart did not come from the log")
	}
	return nil
}
