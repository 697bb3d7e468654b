package smishkit

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// cursorsJSONDir holds a data directory written by `smishctl -serve
// -data-dir` (seed 7, 40 messages, 2 rounds, no live waves) while each
// round still made two durable writes: records/ is the record log, whose
// frames carry no cursors, and checkpoints/cursors.json the forums'
// cursors. report.golden and summary.golden are the report and the
// /query/summary body that build served when it resumed the directory.
const cursorsJSONDir = "testdata/cursors-json-datadir"

// TestCursorsJSONDataDirResumes resumes that directory: with no cursor in
// the log, Serve must fall back to checkpoints/cursors.json, collect
// nothing, and serve the report and summary the old build served.
func TestCursorsJSONDataDirResumes(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, cursorsJSONDir, dir)
	store, err := NewFileCheckpoints(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	var summary []byte
	study, err := NewStudy(Options{
		Seed:       7,
		Messages:   40,
		Durability: &DurabilityConfig{Dir: filepath.Join(dir, "records")},
		Service: &ServiceConfig{
			PollInterval: 5 * time.Millisecond,
			MaxRounds:    2,
			Checkpoints:  store,
			OnRound: func(info RoundInfo) {
				if info.Err != nil || info.NewReports != 0 {
					t.Errorf("resumed round %d: %d new reports, err %v", info.Round, info.NewReports, info.Err)
				}
			},
			OnReady: func(url string) {
				summary = getBody(t, url+"/query/summary")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	ds, err := study.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) == 0 {
		t.Fatal("resumed directory served no records")
	}
	var rendered bytes.Buffer
	if err := WriteReport(&rendered, ds); err != nil {
		t.Fatal(err)
	}
	checkDataDirGolden(t, "report.golden", rendered.Bytes())
	checkDataDirGolden(t, "summary.golden", summary)
	// The fallback is only read: the manifest is as the old build left it.
	manifest, err := os.ReadFile(filepath.Join(dir, "checkpoints", "cursors.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkDataDirGolden(t, "checkpoints/cursors.json", manifest)
}

func checkDataDirGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(cursorsJSONDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the old build's output:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}
