package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	if _, ok, err := s.Load("twitter"); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	cur := Cursor{Source: "twitter", Updated: time.Now().UTC()}
	cur.SetToken("smishing", "twitter-m42")
	if err := s.Save(cur); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load("twitter")
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Token("smishing") != "twitter-m42" {
		t.Fatalf("token round-trip: %+v", got)
	}
	// The stored cursor must be isolated from later mutation of either copy.
	got.SetToken("smishing", "mutated")
	again, _, _ := s.Load("twitter")
	if again.Token("smishing") != "twitter-m42" {
		t.Fatal("Load returned an aliased cursor")
	}
	if err := s.Save(Cursor{}); err == nil {
		t.Fatal("Save accepted a cursor with no source")
	}
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"reddit", "smishing.eu", "pastebin"} {
		cur := Cursor{Source: src, Offset: len(src), LastID: src + "-last", Updated: time.Now().UTC()}
		if err := s.Save(cur); err != nil {
			t.Fatal(err)
		}
	}
	// A second store over the same directory models a restarted daemon.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Load("smishing.eu")
	if err != nil || !ok {
		t.Fatalf("reopened load: ok=%v err=%v", ok, err)
	}
	if got.Offset != len("smishing.eu") || got.LastID != "smishing.eu-last" {
		t.Fatalf("cursor lost fields across reopen: %+v", got)
	}
	all, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("All() = %d cursors, want 3", len(all))
	}
	// No stray temp files may survive a successful commit.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			t.Errorf("leftover non-cursor file %q", e.Name())
		}
	}
}

func TestFileStoreConcurrentSaves(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_ = s.Save(Cursor{Source: "twitter", Offset: n*100 + j})
				_, _, _ = s.Load("twitter")
			}
		}(i)
	}
	wg.Wait()
	got, ok, err := s.Load("twitter")
	if err != nil || !ok {
		t.Fatalf("post-race load: ok=%v err=%v", ok, err)
	}
	if got.Source != "twitter" {
		t.Fatalf("torn cursor: %+v", got)
	}
}

func TestCursorZeroAndClone(t *testing.T) {
	var c Cursor
	if !c.IsZero() {
		t.Fatal("zero cursor not IsZero")
	}
	c.SetToken("k", "v")
	if c.IsZero() {
		t.Fatal("cursor with token reports IsZero")
	}
	cl := c.Clone()
	cl.SetToken("k", "other")
	if c.Token("k") != "v" {
		t.Fatal("Clone shares token map")
	}
}

// TestFileStoreSaveDurabilityContract documents the crash-durability
// contract of Save: by the time it returns nil, the cursor bytes are
// fsynced in the temp file AND the directory entry produced by the rename
// is fsynced — so a crash (or power loss) immediately after a successful
// Save can only ever expose this commit or the previous one, never a
// missing or zero-length cursor file. A unit test cannot pull the power,
// so it pins the observable half of the contract: the committed file is
// complete, no temp debris survives a Save, and every earlier commit is
// fully replaced.
func TestFileStoreSaveDurabilityContract(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		cur := Cursor{Source: "twitter", Offset: i, Updated: time.Now().UTC()}
		if err := s.Save(cur); err != nil {
			t.Fatalf("Save #%d: %v", i, err)
		}
		// The committed file is always the full, current commit.
		got, ok, err := s.Load("twitter")
		if err != nil || !ok || got.Offset != i {
			t.Fatalf("after Save #%d: ok=%v err=%v cursor=%+v", i, ok, err, got)
		}
		// No temp files outlive a successful Save: everything in the
		// directory is a committed cursor.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".json" {
				t.Fatalf("Save #%d left non-commit debris %q", i, e.Name())
			}
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() == 0 {
				t.Fatalf("Save #%d left zero-length commit %q", i, e.Name())
			}
		}
	}
}

// storeCase opens a Store and reopens it the way a restarted process would
// (a MemStore has no process to survive, so its reopen returns itself).
type storeCase struct {
	name string
	open func(t *testing.T) (s Store, reopen func() Store, dir string)
}

func storeCases() []storeCase {
	return []storeCase{
		{"mem", func(t *testing.T) (Store, func() Store, string) {
			s := NewMemStore()
			return s, func() Store { return s }, ""
		}},
		{"file", func(t *testing.T) (Store, func() Store, string) {
			dir := t.TempDir()
			s, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			return s, func() Store {
				s2, err := NewFileStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				return s2
			}, dir
		}},
	}
}

// fiveCursors is one cursor per forum, each using its source's fields.
func fiveCursors() []Cursor {
	at := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	tw := Cursor{Source: "twitter", Updated: at}
	tw.SetToken("smishing", "t-9")
	tw.SetToken("sms scam", "t-7")
	rd := Cursor{Source: "reddit", Updated: at}
	rd.SetToken("smishing", "r-3")
	return []Cursor{
		tw, rd,
		{Source: "smishtank", Offset: 40, Updated: at},
		{Source: "smishing.eu", Offset: 75, Updated: at},
		{Source: "pastebin", LastID: "p000012", Updated: at},
	}
}

// dirNames lists a store directory's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestStoreMultiCursorSaveRoundTrip(t *testing.T) {
	for _, tc := range storeCases() {
		t.Run(tc.name, func(t *testing.T) {
			s, reopen, dir := tc.open(t)
			want := fiveCursors()
			if err := s.Save(want...); err != nil {
				t.Fatal(err)
			}
			all, err := reopen().All()
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(want) {
				t.Fatalf("All() = %d cursors, want %d", len(all), len(want))
			}
			for _, c := range want {
				if got := all[c.Source]; !reflect.DeepEqual(got, c) {
					t.Fatalf("%s after reopen: %+v, want %+v", c.Source, got, c)
				}
			}
			if dir != "" {
				// One manifest, no temp debris.
				if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{manifestName}) {
					t.Fatalf("store dir holds %q, want only %s", names, manifestName)
				}
			}
		})
	}
}

func TestStoreRejectsBatchWithSourcelessCursor(t *testing.T) {
	for _, tc := range storeCases() {
		t.Run(tc.name, func(t *testing.T) {
			s, reopen, dir := tc.open(t)
			before := Cursor{Source: "smishtank", Offset: 5}
			if err := s.Save(before); err != nil {
				t.Fatal(err)
			}
			var manifest []byte
			if dir != "" {
				manifest, _ = os.ReadFile(filepath.Join(dir, manifestName))
			}
			batch := fiveCursors()
			batch[3].Source = ""
			if err := s.Save(batch...); err == nil {
				t.Fatal("Save accepted a batch with a source-less cursor")
			}
			for _, st := range []Store{s, reopen()} {
				all, err := st.All()
				if err != nil {
					t.Fatal(err)
				}
				if len(all) != 1 || !reflect.DeepEqual(all["smishtank"], before) {
					t.Fatalf("rejected batch changed the store: %+v", all)
				}
			}
			if dir != "" {
				after, _ := os.ReadFile(filepath.Join(dir, manifestName))
				if !bytes.Equal(after, manifest) {
					t.Fatal("rejected batch rewrote the manifest")
				}
				if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{manifestName}) {
					t.Fatalf("store dir holds %q, want only %s", names, manifestName)
				}
			}
		})
	}
}

func TestStoreEmptySaveWritesNothing(t *testing.T) {
	for _, tc := range storeCases() {
		t.Run(tc.name, func(t *testing.T) {
			s, reopen, dir := tc.open(t)
			if err := s.Save(); err != nil {
				t.Fatal(err)
			}
			if all, _ := reopen().All(); len(all) != 0 {
				t.Fatalf("empty Save committed %+v", all)
			}
			if dir != "" {
				if names := dirNames(t, dir); len(names) != 0 {
					t.Fatalf("empty Save created %q", names)
				}
			}
		})
	}
}

// TestFileStoreResumesLegacyLayout opens a directory written in the
// earlier one-file-per-source layout: it must resume the same cursors, and
// the first commit must leave only the manifest behind.
func TestFileStoreResumesLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	want := fiveCursors()
	for _, c := range want {
		data, err := json.MarshalIndent(c, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, c.Source+legacySuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range want {
		got, ok, err := s.Load(c.Source)
		if err != nil || !ok || !reflect.DeepEqual(got, c) {
			t.Fatalf("legacy %s: ok=%v err=%v got %+v, want %+v", c.Source, ok, err, got, c)
		}
	}

	moved := want[2]
	moved.Offset++
	if err := s.Save(moved); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{manifestName}) {
		t.Fatalf("after first commit the dir holds %q, want only %s", names, manifestName)
	}
	reopened, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := reopened.All()
	want[2] = moved
	for _, c := range want {
		if !reflect.DeepEqual(all[c.Source], c) {
			t.Fatalf("%s after migration: %+v, want %+v", c.Source, all[c.Source], c)
		}
	}
}

func TestCursorSamePosition(t *testing.T) {
	base := fiveCursors()[0]
	later := base.Clone()
	later.Source = "other"
	later.Updated = base.Updated.Add(time.Hour)
	if !base.SamePosition(later) {
		t.Fatal("Source/Updated changes counted as a move")
	}
	if !(Cursor{}).SamePosition(Cursor{Tokens: map[string]string{}}) {
		t.Fatal("nil and empty Tokens differ")
	}
	moves := []func(c *Cursor){
		func(c *Cursor) { c.SetToken("smishing", "t-10") },
		func(c *Cursor) { c.SetToken("new keyword", "t-1") },
		func(c *Cursor) { c.Offset++ },
		func(c *Cursor) { c.LastID = "p1" },
	}
	for i, move := range moves {
		c := base.Clone()
		move(&c)
		if base.SamePosition(c) || c.SamePosition(base) {
			t.Fatalf("move %d not detected", i)
		}
	}
}
