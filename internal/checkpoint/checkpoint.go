// Package checkpoint persists the incremental-collection cursors that turn
// the one-shot forum sweep into a resumable, continuously-syncing daemon.
// Each forum source owns one Cursor whose fields mirror that source's
// native pagination contract (Twitter since-IDs per keyword, Reddit after
// tokens per keyword, offset counters for the offset-paginated APIs, the
// last fully-consumed Pastebin paste ID). A Store durably maps source
// names to cursors and commits any set of them atomically; the in-memory
// store backs tests and single-process runs, the file store keeps every
// source in one manifest that survives process death, so a restarted
// daemon resumes exactly where the previous one committed.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Cursor is one source's durable sync position. Which fields are
// meaningful depends on the source:
//
//   - Twitter: Tokens maps each search keyword to the newest tweet ID the
//     collector has fully consumed for that keyword (the v2 since_id).
//   - Reddit: Tokens maps each keyword to the last listing child ID seen
//     (resumed as after=t3_<id>).
//   - Smishtank: Offset counts consumed submissions (the API's offset).
//   - smishing.eu: Offset counts consumed table rows across pages.
//   - Pastebin: LastID is the last fully-consumed paste ID in archive
//     order.
//
// Updated is stamped by the collector on every successful sync, including
// empty ones, so the age of the daemon's live cursor measures how long a
// source has gone without a completed sync — the
// collect.cursor_lag.<source> gauge. The daemon commits a cursor only when
// its position moved, so a committed Updated dates the last sync that
// advanced it.
type Cursor struct {
	Source  string            `json:"source"`
	Tokens  map[string]string `json:"tokens,omitempty"`
	Offset  int               `json:"offset,omitempty"`
	LastID  string            `json:"last_id,omitempty"`
	Updated time.Time         `json:"updated,omitempty"`
}

// IsZero reports whether the cursor carries no sync position at all — the
// state of a source that has never completed a sync.
func (c Cursor) IsZero() bool {
	return len(c.Tokens) == 0 && c.Offset == 0 && c.LastID == ""
}

// Clone returns a deep copy, so a collector can stage updates without
// mutating the committed cursor on a failed round.
func (c Cursor) Clone() Cursor {
	out := c
	if c.Tokens != nil {
		out.Tokens = make(map[string]string, len(c.Tokens))
		for k, v := range c.Tokens {
			out.Tokens[k] = v
		}
	}
	return out
}

// Token returns the token stored under key ("" when absent), tolerating a
// nil map.
func (c Cursor) Token(key string) string {
	if c.Tokens == nil {
		return ""
	}
	return c.Tokens[key]
}

// SetToken stores a token, allocating the map on first use.
func (c *Cursor) SetToken(key, value string) {
	if c.Tokens == nil {
		c.Tokens = make(map[string]string)
	}
	c.Tokens[key] = value
}

// SamePosition reports whether c and o resume collection from the same
// place: equal Tokens, Offset and LastID. Source and Updated are ignored,
// so a sync that found nothing new compares equal to the cursor it started
// from — the test a daemon uses to skip committing an unmoved cursor.
func (c Cursor) SamePosition(o Cursor) bool {
	return c.Offset == o.Offset && c.LastID == o.LastID && maps.Equal(c.Tokens, o.Tokens)
}

// Store durably maps source names to cursors. Implementations must be
// safe for concurrent use.
type Store interface {
	// Load returns the committed cursor for source and whether one exists.
	Load(source string) (Cursor, bool, error)
	// Save commits every given cursor under its Source in one atomic step:
	// when it returns nil all of them are committed, otherwise none is and
	// Load still returns the previous positions. A cursor with no Source
	// rejects the whole batch; Save with no cursors writes nothing.
	Save(curs ...Cursor) error
	// All returns every committed cursor keyed by source.
	All() (map[string]Cursor, error)
}

// checkSources rejects a batch holding a cursor with no source, before
// anything of it is committed.
func checkSources(curs []Cursor) error {
	for _, c := range curs {
		if c.Source == "" {
			return errors.New("checkpoint: cursor has no source")
		}
	}
	return nil
}

// cloneAll deep-copies a source → cursor map.
func cloneAll(m map[string]Cursor) map[string]Cursor {
	out := make(map[string]Cursor, len(m))
	for k, v := range m {
		out[k] = v.Clone()
	}
	return out
}

// MemStore is an in-memory Store: fast, concurrency-safe, gone with the
// process. It is the default for Serve when no store is configured.
type MemStore struct {
	mu      sync.RWMutex
	cursors map[string]Cursor
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{cursors: make(map[string]Cursor)}
}

// Load implements Store.
func (s *MemStore) Load(source string) (Cursor, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.cursors[source]
	return c.Clone(), ok, nil
}

// Save implements Store.
func (s *MemStore) Save(curs ...Cursor) error {
	if err := checkSources(curs); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range curs {
		s.cursors[c.Source] = c.Clone()
	}
	return nil
}

// All implements Store.
func (s *MemStore) All() (map[string]Cursor, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return cloneAll(s.cursors), nil
}

// manifestName is the file under a FileStore's directory that holds every
// source's committed cursor.
const manifestName = "cursors.json"

// legacySuffix names the per-source cursor files of the store's earlier
// layout (one "<source>.cursor.json" per source). A directory without a
// manifest resumes from them; the first commit replaces them.
const legacySuffix = ".cursor.json"

// FileStore persists every source's cursor in one manifest file,
// cursors.json, rewritten as a whole on each commit via temp file + fsync
// + rename + directory fsync, so a crash mid-write never corrupts the
// committed positions and a multi-cursor Save is all-or-nothing. A daemon
// restarted over the same directory resumes from the last committed
// manifest. The store must be its directory's only writer: it reads the
// manifest once at open and serves Load and All from memory.
type FileStore struct {
	dir     string
	mu      sync.Mutex
	cursors map[string]Cursor // the committed manifest
	legacy  []string          // earlier-layout files not yet removed
}

// NewFileStore opens (creating if needed) a cursor directory and loads its
// manifest, or — when there is none — the per-source files of the earlier
// layout.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list store dir: %w", err)
	}
	s := &FileStore{dir: dir, cursors: make(map[string]Cursor)}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), legacySuffix) {
			s.legacy = append(s.legacy, e.Name())
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &s.cursors); err != nil {
			return nil, fmt.Errorf("checkpoint: decode %s: %w", manifestName, err)
		}
	case errors.Is(err, os.ErrNotExist):
		for _, name := range s.legacy {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, fmt.Errorf("checkpoint: load %s: %w", name, err)
			}
			var c Cursor
			if err := json.Unmarshal(data, &c); err != nil {
				return nil, fmt.Errorf("checkpoint: decode %s: %w", name, err)
			}
			s.cursors[c.Source] = c
		}
	default:
		return nil, fmt.Errorf("checkpoint: read %s: %w", manifestName, err)
	}
	return s, nil
}

// Load implements Store.
func (s *FileStore) Load(source string) (Cursor, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.cursors[source]
	return c.Clone(), ok, nil
}

// All implements Store.
func (s *FileStore) All() (map[string]Cursor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cloneAll(s.cursors), nil
}

// Save implements Store: it merges curs into the committed cursors and
// durably replaces the manifest with the result. The in-memory view
// changes only after the new manifest is durable, so a failed Save leaves
// Load, All and the file at the previous commit. The first successful
// Save over an earlier-layout directory then removes the per-source files;
// one that survives a crash is ignored on reopen (the manifest wins) and
// removal is retried on the next commit.
func (s *FileStore) Save(curs ...Cursor) error {
	if len(curs) == 0 {
		return nil
	}
	if err := checkSources(curs); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next := cloneAll(s.cursors)
	for _, c := range curs {
		next[c.Source] = c.Clone()
	}
	data, err := json.MarshalIndent(next, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encode %s: %w", manifestName, err)
	}
	if err := WriteDurable(s.dir, manifestName, data); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.cursors = next
	kept := s.legacy[:0]
	for _, name := range s.legacy {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			kept = append(kept, name)
		}
	}
	s.legacy = kept
	return nil
}

// WriteDurable replaces dir/name with data: write + fsync a temp file in
// the same directory, atomically rename it over the committed path, then
// fsync the directory. The rename alone makes the swap atomic against
// readers, but not durable: after a crash the directory entry may still
// point at the old file (fine — the previous commit) or, without the
// temp-file fsync, at a zero-length new one (the commit lost). Both syncs
// together guarantee a write that returned nil survives power loss. The
// error names the failed step and the file; callers add their package's
// prefix.
func WriteDurable(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "."+name+".tmp-*")
	if err != nil {
		return fmt.Errorf("%s temp file: %w", name, err)
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("write %s: %w", name, errors.Join(werr, serr, cerr))
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("commit %s: %w", name, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("sync %s dir: %w", name, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable, not merely atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	return errors.Join(serr, cerr)
}
