// Package recordlog makes the served dataset durable. The service daemon
// loses every in-memory structure on exit; this package keeps what a
// restarted daemon needs to resume exactly where the previous one
// committed, in an append-only record log plus periodic snapshots:
//
//   - Every committing round appends one CRC-framed, fsynced batch to
//     records.log: its fresh enriched records, the curation totals and the
//     collection cursors (internal/checkpoint) it moved. That one write is
//     the round's commit, so a crash never leaves records durable without
//     the cursors that produced them. Records also dedup by ID, so a round
//     re-collected from cursors older than the log never double-counts.
//   - Injected load waves (core.InjectSpec) are journaled in the same log.
//     A restarted process replays them into its freshly booted simulation,
//     so the forum servers regain the injected posts the durable cursors
//     already point past.
//   - Periodic snapshots (snapshot.json, atomic rename + dir sync) bound
//     restart cost: open loads the snapshot and replays only the log tail
//     appended after it. When the log outgrows CompactThreshold the log is
//     snapshotted and truncated — restart cost stays one snapshot + tail
//     no matter how long the daemon has been running. A snapshot carries
//     the latest cursor of every source.
//
// Frame format, little-endian:
//
//	[1 byte kind][4 byte payload length][4 byte IEEE CRC32 of payload][payload]
//
// Payloads are JSON. Batch totals are cumulative, so replaying a log with
// duplicated frames still reconstructs exact state: records dedup by ID,
// totals are absolute, the last cursor per source wins, and frames covered
// by the snapshot are skipped by sequence number.
//
// On open, a torn final frame (the write the crash interrupted) is
// truncated away and counted in recordlog.truncated_tail; a frame whose
// CRC does not match its payload is rejected — it and everything after it
// are truncated, counted in recordlog.corrupt_frames — because nothing
// beyond a corrupt frame can be trusted.
package recordlog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/smishkit/smishkit/internal/checkpoint"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Config tunes the durable record log (the facade's Options.Durability).
type Config struct {
	// Dir holds records.log and snapshot.json; created if missing.
	Dir string
	// SnapshotInterval is how often an append also refreshes the snapshot
	// (default 30s). Snapshots bound the tail a restart must replay.
	SnapshotInterval time.Duration
	// CompactThreshold is the log size in bytes that triggers compaction:
	// snapshot everything, then truncate the log (default 8 MiB).
	CompactThreshold int64
}

func (c Config) withDefaults() Config {
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.CompactThreshold == 0 {
		c.CompactThreshold = 8 << 20
	}
	return c
}

// Stats is the log's scoreboard, mirrored into the telemetry registry
// under "recordlog.*".
type Stats struct {
	// Appends counts frames written (round commits plus inject journal
	// entries) since open.
	Appends int64 `json:"appends"`
	// Replayed counts records restored on open (snapshot + log tail).
	Replayed int64 `json:"replayed"`
	// Deduped counts appended records dropped because their ID was already
	// in the log — a round re-collected from cursors older than the log.
	Deduped int64 `json:"deduped"`
	// Snapshots counts snapshot files written since open.
	Snapshots int64 `json:"snapshots"`
	// Compactions counts snapshot-plus-truncate cycles since open.
	Compactions int64 `json:"compactions"`
	// TruncatedTail counts torn final frames discarded on open (0 or 1).
	TruncatedTail int64 `json:"truncated_tail"`
	// CorruptFrames counts CRC-mismatched or undecodable frames rejected
	// on open.
	CorruptFrames int64 `json:"corrupt_frames"`
	// Records is the dataset size the log currently holds.
	Records int `json:"records"`
	// Injects is the journaled injection count (replayed + new).
	Injects int `json:"injects"`
	// LogBytes is the live log file size; SnapshotBytes the last written
	// snapshot's size (0 before the first snapshot).
	LogBytes      int64 `json:"log_bytes"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// LastSnapshot is when the newest snapshot was written (zero when the
	// directory has none).
	LastSnapshot time.Time `json:"last_snapshot"`
}

// Frame kinds.
const (
	kindBatch  = 1 // one committed round's fresh records, cumulative totals and moved cursors
	kindInject = 2 // one journaled core.InjectSpec
)

const (
	logName      = "records.log"
	snapshotName = "snapshot.json"
	frameHeader  = 1 + 4 + 4 // kind + length + crc
	// maxFrame bounds a single frame payload; anything larger in a header
	// is corruption, not data (the largest real batch is a few MiB).
	maxFrame = 256 << 20
)

// totals is the cumulative curation bookkeeping after a frame. Values are
// absolute, not deltas, so re-applied frames cannot inflate them.
type totals struct {
	PostsByForum   map[corpus.Forum]int `json:"posts_by_forum,omitempty"`
	ImagesByForum  map[corpus.Forum]int `json:"images_by_forum,omitempty"`
	DecoysRejected int                  `json:"decoys_rejected"`
	EmptyDropped   int                  `json:"empty_dropped"`
}

func (t totals) clone() totals {
	out := t
	out.PostsByForum = cloneForumMap(t.PostsByForum)
	out.ImagesByForum = cloneForumMap(t.ImagesByForum)
	return out
}

func cloneForumMap(m map[corpus.Forum]int) map[corpus.Forum]int {
	out := make(map[corpus.Forum]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// batchFrame is the payload of a kindBatch frame.
type batchFrame struct {
	Seq         uint64        `json:"seq"`
	CommittedAt time.Time     `json:"committed_at"`
	Records     []core.Record `json:"records"`
	Totals      totals        `json:"totals"`
	// Cursors are the ones the round moved (none in an older log).
	Cursors []checkpoint.Cursor `json:"cursors,omitempty"`
}

// injectFrame is the payload of a kindInject frame.
type injectFrame struct {
	Seq  uint64          `json:"seq"`
	At   time.Time       `json:"at"`
	Spec core.InjectSpec `json:"spec"`
}

// snapshot is the full durable state as of frame Seq; frames with lower or
// equal sequence numbers are skipped during tail replay.
type snapshot struct {
	Seq     uint64            `json:"seq"`
	SavedAt time.Time         `json:"saved_at"`
	Injects []core.InjectSpec `json:"injects,omitempty"`
	Records []core.Record     `json:"records"`
	Totals  totals            `json:"totals"`
	// Cursors is the latest committed cursor of every source.
	Cursors map[string]checkpoint.Cursor `json:"cursors,omitempty"`
}

// counters bundles the telemetry instruments the log maintains.
type counters struct {
	appends, replayed, deduped, snapshots, compactions *telemetry.Counter
	truncatedTail, corruptFrames                       *telemetry.Counter
	logBytes                                           *telemetry.Gauge
	// write and fsync time the two halves of every appended frame.
	write, fsync *telemetry.Histogram
}

func newCounters(reg *telemetry.Registry) counters {
	return counters{
		appends:       reg.Counter("recordlog.appends"),
		replayed:      reg.Counter("recordlog.replayed"),
		deduped:       reg.Counter("recordlog.deduped"),
		snapshots:     reg.Counter("recordlog.snapshots"),
		compactions:   reg.Counter("recordlog.compactions"),
		truncatedTail: reg.Counter("recordlog.truncated_tail"),
		corruptFrames: reg.Counter("recordlog.corrupt_frames"),
		logBytes:      reg.Gauge("recordlog.log_bytes"),
		write:         reg.Histogram("recordlog.write"),
		fsync:         reg.Histogram("recordlog.fsync"),
	}
}

// Log is the durable record log: single-writer, safe for concurrent use.
type Log struct {
	cfg Config
	ctr counters

	mu       sync.Mutex
	f        *os.File
	size     int64
	seq      uint64
	seen     map[string]struct{}
	records  []core.Record
	totals   totals
	cursors  map[string]checkpoint.Cursor // latest committed cursor per source
	injects  []core.InjectSpec
	lastSnap time.Time
	// snapSeq is the last sequence number a snapshot holds; Open sets it
	// to the replayed sequence, so only frames appended since count as
	// unsnapshotted.
	snapSeq  uint64
	stats    Stats
	closed   bool
	closeErr error
}

// Open opens (creating if needed) the log directory, loads the newest
// snapshot, and replays the log tail: torn final frames are truncated,
// corrupt frames rejected (with everything after them), records deduped by
// ID, totals taken from the last valid frame, and each source's cursor
// from the last valid frame that moved it. reg may be nil (metrics
// go to a private registry).
func Open(cfg Config, reg *telemetry.Registry) (*Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("recordlog: Config.Dir is empty")
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("recordlog: create dir: %w", err)
	}
	l := &Log{
		cfg:     cfg,
		ctr:     newCounters(reg),
		seen:    make(map[string]struct{}),
		cursors: make(map[string]checkpoint.Cursor),
		totals:  totals{}.clone(), // empty, with non-nil count maps
	}
	if err := l.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := l.openAndReplay(); err != nil {
		return nil, err
	}
	l.snapSeq = l.seq
	l.stats.Replayed = int64(len(l.records))
	l.ctr.replayed.Add(l.stats.Replayed)
	l.ctr.logBytes.Set(l.size)
	return l, nil
}

// loadSnapshot restores state from snapshot.json when present. A snapshot
// that cannot be decoded is an error: silently starting empty would let a
// later snapshot overwrite the only durable copy of the dataset.
func (l *Log) loadSnapshot() error {
	path := filepath.Join(l.cfg.Dir, snapshotName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("recordlog: read snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("recordlog: decode snapshot %s: %w", path, err)
	}
	l.seq = snap.Seq
	l.records = snap.Records
	l.injects = snap.Injects
	for src, c := range snap.Cursors {
		l.cursors[src] = c
	}
	l.totals = snap.Totals.clone() // clone never leaves a nil count map
	for _, r := range snap.Records {
		l.seen[r.ID] = struct{}{}
	}
	l.lastSnap = snap.SavedAt
	l.stats.LastSnapshot = snap.SavedAt
	l.stats.SnapshotBytes = int64(len(data))
	return nil
}

// openAndReplay opens records.log, replays every frame past the snapshot,
// and truncates torn or corrupt tails so the file ends on a clean frame
// boundary ready for appends.
func (l *Log) openAndReplay() error {
	path := filepath.Join(l.cfg.Dir, logName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("recordlog: open log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("recordlog: read log: %w", err)
	}

	snapSeq := l.seq
	valid := 0 // bytes covered by fully valid frames
	for valid < len(data) {
		rest := data[valid:]
		if len(rest) < frameHeader {
			l.stats.TruncatedTail++
			l.ctr.truncatedTail.Inc()
			break
		}
		length := binary.LittleEndian.Uint32(rest[1:5])
		end := frameHeader + int(length)
		if length <= maxFrame && end > len(rest) {
			// The final append never completed: a torn tail, not corruption.
			l.stats.TruncatedTail++
			l.ctr.truncatedTail.Inc()
			break
		}
		// A length past maxFrame is a scribbled header, not a frame.
		if length > maxFrame || crc32.ChecksumIEEE(rest[frameHeader:end]) != binary.LittleEndian.Uint32(rest[5:9]) ||
			!l.replayFrame(rest[0], rest[frameHeader:end], snapSeq) {
			l.stats.CorruptFrames++
			l.ctr.corruptFrames.Inc()
			break
		}
		valid += end
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return fmt.Errorf("recordlog: truncate damaged tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("recordlog: sync truncated log: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("recordlog: seek log tail: %w", err)
	}
	l.f = f
	l.size = int64(valid)
	return nil
}

// replayFrame applies one CRC-checked frame to the replayed state; the
// state of a frame the snapshot already holds is skipped. It reports false
// for an unknown kind or a payload that does not decode.
func (l *Log) replayFrame(kind byte, payload []byte, snapSeq uint64) bool {
	var seq uint64
	switch kind {
	case kindBatch:
		var fr batchFrame
		if json.Unmarshal(payload, &fr) != nil {
			return false
		}
		if seq = fr.Seq; seq > snapSeq {
			for _, r := range fr.Records {
				if _, dup := l.seen[r.ID]; !dup {
					l.seen[r.ID] = struct{}{}
					l.records = append(l.records, r)
				}
			}
			l.totals = fr.Totals.clone()
			for _, c := range fr.Cursors {
				l.cursors[c.Source] = c
			}
		}
	case kindInject:
		var fr injectFrame
		if json.Unmarshal(payload, &fr) != nil {
			return false
		}
		if seq = fr.Seq; seq > snapSeq {
			l.injects = append(l.injects, fr.Spec)
		}
	default:
		return false
	}
	l.seq = max(l.seq, seq)
	return true
}

// Append commits one round: its fresh records, curation bookkeeping and
// moved cursors go into one fsynced frame, so a crash leaves all of them
// durable or none. Records whose ID the log already holds are dropped
// (counted in recordlog.deduped), with the bookkeeping when the whole
// batch was a replay. The returned dataset holds what was kept, for the
// live projection. A round with nothing fresh and no moved cursor writes
// nothing.
func (l *Log) Append(ds *core.Dataset, at time.Time, moved ...checkpoint.Cursor) (*core.Dataset, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errors.New("recordlog: log closed")
	}
	for _, c := range moved {
		if c.Source == "" {
			return nil, errors.New("recordlog: cursor has no source")
		}
	}
	fresh := &core.Dataset{
		PostsByForum:  cloneForumMap(ds.PostsByForum),
		ImagesByForum: cloneForumMap(ds.ImagesByForum),
	}
	for _, r := range ds.Records {
		if _, dup := l.seen[r.ID]; dup {
			l.stats.Deduped++
			l.ctr.deduped.Inc()
			continue
		}
		fresh.Records = append(fresh.Records, r)
	}
	if len(ds.Records) > 0 && len(fresh.Records) == 0 {
		// Its bookkeeping was counted when the records first landed.
		fresh = &core.Dataset{
			PostsByForum:  make(map[corpus.Forum]int),
			ImagesByForum: make(map[corpus.Forum]int),
		}
	} else {
		fresh.DecoysRejected = ds.DecoysRejected
		fresh.EmptyDropped = ds.EmptyDropped
	}
	if len(moved) == 0 && datasetEmpty(fresh) {
		return fresh, nil // nothing worth a frame
	}

	// The totals change only once the frame holding them is durable.
	next := l.totals.clone()
	for f, n := range fresh.PostsByForum {
		next.PostsByForum[f] += n
	}
	for f, n := range fresh.ImagesByForum {
		next.ImagesByForum[f] += n
	}
	next.DecoysRejected += fresh.DecoysRejected
	next.EmptyDropped += fresh.EmptyDropped

	frame := batchFrame{
		Seq:         l.seq + 1,
		CommittedAt: at,
		Records:     fresh.Records,
		Totals:      next,
		Cursors:     moved,
	}
	payload, err := json.Marshal(frame)
	if err != nil {
		return nil, fmt.Errorf("recordlog: encode batch: %w", err)
	}
	if err := l.writeFrameLocked(kindBatch, payload); err != nil {
		return nil, err
	}
	l.seq = frame.Seq
	l.totals = next
	for _, c := range moved {
		l.cursors[c.Source] = c.Clone()
	}
	for _, r := range fresh.Records {
		l.seen[r.ID] = struct{}{}
	}
	l.records = append(l.records, fresh.Records...)
	if err := l.maybeSnapshotLocked(at); err != nil {
		return nil, err
	}
	return fresh, nil
}

// AppendInject journals one injection so a restarted process can replay it
// into its fresh simulation — without it, durable cursors would point past
// posts the rebooted forum servers never heard of.
func (l *Log) AppendInject(spec core.InjectSpec, at time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("recordlog: log closed")
	}
	frame := injectFrame{Seq: l.seq + 1, At: at, Spec: spec}
	payload, err := json.Marshal(frame)
	if err != nil {
		return fmt.Errorf("recordlog: encode inject: %w", err)
	}
	if err := l.writeFrameLocked(kindInject, payload); err != nil {
		return err
	}
	l.seq = frame.Seq
	l.injects = append(l.injects, spec)
	return nil
}

// writeFrameLocked frames, writes, and fsyncs one payload, observing the
// write and the fsync in their own histograms.
func (l *Log) writeFrameLocked(kind byte, payload []byte) error {
	var hdr [frameHeader]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	start := time.Now()
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("recordlog: write frame header: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("recordlog: write frame payload: %w", err)
	}
	synced := time.Now()
	l.ctr.write.Observe(synced.Sub(start))
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("recordlog: sync log: %w", err)
	}
	l.ctr.fsync.Observe(time.Since(synced))
	l.size += int64(frameHeader + len(payload))
	l.stats.Appends++
	l.ctr.appends.Inc()
	l.ctr.logBytes.Set(l.size)
	return nil
}

// maybeSnapshotLocked refreshes the snapshot on the configured interval
// and compacts (snapshot + truncate) when the log crosses the threshold.
func (l *Log) maybeSnapshotLocked(now time.Time) error {
	if l.size >= l.cfg.CompactThreshold {
		return l.compactLocked(now)
	}
	if l.cfg.SnapshotInterval > 0 && now.Sub(l.lastSnap) >= l.cfg.SnapshotInterval {
		return l.snapshotLocked(now)
	}
	return nil
}

// snapshotLocked writes the full state as snapshot.json through
// checkpoint.WriteDurable (temp file + fsync + atomic rename + directory
// sync), so a crash at any point leaves either the old snapshot or the
// new one, never a torn mix.
func (l *Log) snapshotLocked(now time.Time) error {
	snap := snapshot{
		Seq:     l.seq,
		SavedAt: now.UTC(),
		Injects: l.injects,
		Records: l.records,
		Totals:  l.totals,
		Cursors: l.cursors,
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("recordlog: encode snapshot: %w", err)
	}
	if err := checkpoint.WriteDurable(l.cfg.Dir, snapshotName, data); err != nil {
		return fmt.Errorf("recordlog: %w", err)
	}
	l.lastSnap = now
	l.snapSeq = snap.Seq
	l.stats.Snapshots++
	l.stats.LastSnapshot = snap.SavedAt
	l.stats.SnapshotBytes = int64(len(data))
	l.ctr.snapshots.Inc()
	return nil
}

// compactLocked snapshots then truncates the log. The snapshot lands
// durably first, so a crash between the two steps merely leaves frames the
// next open skips by sequence number.
func (l *Log) compactLocked(now time.Time) error {
	if err := l.snapshotLocked(now); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("recordlog: compact truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("recordlog: compact seek: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("recordlog: compact sync: %w", err)
	}
	l.size = 0
	l.stats.Compactions++
	l.ctr.compactions.Inc()
	l.ctr.logBytes.Set(0)
	return nil
}

// Snapshot forces a snapshot now, regardless of interval or size.
func (l *Log) Snapshot() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("recordlog: log closed")
	}
	return l.snapshotLocked(time.Now())
}

// Committed returns the durable dataset (replayed + appended this run)
// without copying its records: Records is a view of the log's own list,
// capped at its current length, so later appends land past its end and
// never show through it. Records are never modified once appended, so the
// view stays valid while the log grows; callers must not modify it
// either. The count maps are copies. The daemon's projection indexes this
// view instead of keeping a second copy of every record.
func (l *Log) Committed() *core.Dataset {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.records)
	return &core.Dataset{
		Records:        l.records[:n:n],
		PostsByForum:   cloneForumMap(l.totals.PostsByForum),
		ImagesByForum:  cloneForumMap(l.totals.ImagesByForum),
		DecoysRejected: l.totals.DecoysRejected,
		EmptyDropped:   l.totals.EmptyDropped,
	}
}

// Cursors returns the latest committed cursor of every source the log
// holds one for.
func (l *Log) Cursors() map[string]checkpoint.Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]checkpoint.Cursor, len(l.cursors))
	for src, c := range l.cursors {
		out[src] = c.Clone()
	}
	return out
}

// Injects returns the journaled injection specs in append order.
func (l *Log) Injects() []core.InjectSpec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]core.InjectSpec, len(l.injects))
	copy(out, l.injects)
	return out
}

// Stats returns the log scoreboard.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Records = len(l.records)
	st.Injects = len(l.injects)
	st.LogBytes = l.size
	return st
}

// Close snapshots once more when frames were appended since the last
// snapshot (so the next open replays an empty tail) and closes the file.
// Idempotent: the first call does the work, every call reports its error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.closeErr
	}
	l.closed = true
	var errs []error
	if l.seq > l.snapSeq {
		if err := l.snapshotLocked(time.Now()); err != nil {
			errs = append(errs, err)
		}
	}
	if err := l.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("recordlog: close log: %w", err))
	}
	l.closeErr = errors.Join(errs...)
	return l.closeErr
}

// datasetEmpty reports whether a dataset carries nothing durable.
func datasetEmpty(ds *core.Dataset) bool {
	if len(ds.Records) > 0 || ds.DecoysRejected != 0 || ds.EmptyDropped != 0 {
		return false
	}
	for _, n := range ds.PostsByForum {
		if n != 0 {
			return false
		}
	}
	for _, n := range ds.ImagesByForum {
		if n != 0 {
			return false
		}
	}
	return true
}

// Write renders a Stats snapshot as aligned human-readable text — the
// SectionDurability renderer.
func Write(w io.Writer, st Stats) error {
	if _, err := fmt.Fprintf(w, "recordlog\n  records=%d injects=%d log=%dB snapshot=%dB\n",
		st.Records, st.Injects, st.LogBytes, st.SnapshotBytes); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  appends=%d replayed=%d deduped=%d snapshots=%d compactions=%d\n",
		st.Appends, st.Replayed, st.Deduped, st.Snapshots, st.Compactions); err != nil {
		return err
	}
	if st.TruncatedTail > 0 || st.CorruptFrames > 0 {
		if _, err := fmt.Fprintf(w, "  damage: truncated_tail=%d corrupt_frames=%d\n",
			st.TruncatedTail, st.CorruptFrames); err != nil {
			return err
		}
	}
	if !st.LastSnapshot.IsZero() {
		if _, err := fmt.Fprintf(w, "  last_snapshot=%s\n", st.LastSnapshot.Format(time.RFC3339)); err != nil {
			return err
		}
	}
	return nil
}
