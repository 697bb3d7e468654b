package recordlog

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/smishkit/smishkit/internal/checkpoint"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/extract"
	"github.com/smishkit/smishkit/internal/telemetry"
)

func testRecord(id string) core.Record {
	return core.Record{
		ID:        id,
		Forum:     corpus.ForumTwitter,
		Text:      "your parcel is held, pay at example.test",
		Domain:    "example.test",
		SenderRaw: "+15550001111",
		Timestamp: extract.ParsedTime{Time: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC), HasDate: true},
	}
}

func testBatch(ids ...string) *core.Dataset {
	ds := &core.Dataset{
		PostsByForum:  map[corpus.Forum]int{corpus.ForumTwitter: len(ids)},
		ImagesByForum: map[corpus.Forum]int{},
	}
	for _, id := range ids {
		ds.Records = append(ds.Records, testRecord(id))
	}
	return ds
}

func ids(ds *core.Dataset) []string {
	out := make([]string, 0, len(ds.Records))
	for _, r := range ds.Records {
		out = append(out, r.ID)
	}
	sort.Strings(out)
	return out
}

func mustOpen(t *testing.T, dir string, reg *telemetry.Registry) *Log {
	t.Helper()
	l, err := Open(Config{Dir: dir}, reg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// TestAppendReplayRoundTrip pins the basic contract: records appended
// across several rounds come back identical (records, totals, injects)
// from a fresh Open of the same directory.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	at := time.Date(2026, 8, 2, 9, 0, 0, 0, time.UTC)
	if _, err := l.Append(testBatch("a", "b"), at); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.AppendInject(core.InjectSpec{Seed: 7, Messages: 10}, at); err != nil {
		t.Fatalf("AppendInject: %v", err)
	}
	if _, err := l.Append(testBatch("c"), at.Add(time.Second)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	want := l.Committed()
	// Close without relying on its snapshot: re-open must replay the log.
	if err := l.f.Close(); err != nil {
		t.Fatalf("close file: %v", err)
	}

	l2 := mustOpen(t, dir, nil)
	defer l2.Close()
	got := l2.Committed()
	if !reflect.DeepEqual(ids(got), ids(want)) {
		t.Fatalf("replayed IDs = %v, want %v", ids(got), ids(want))
	}
	if got.PostsByForum[corpus.ForumTwitter] != 3 {
		t.Fatalf("replayed posts = %d, want 3", got.PostsByForum[corpus.ForumTwitter])
	}
	inj := l2.Injects()
	if len(inj) != 1 || inj[0].Seed != 7 || inj[0].Messages != 10 {
		t.Fatalf("replayed injects = %+v", inj)
	}
	if st := l2.Stats(); st.Replayed != 3 {
		t.Fatalf("Stats.Replayed = %d, want 3", st.Replayed)
	}
}

// TestAppendDedupsByRecordID pins the re-collection protection: a batch
// whose records are already logged, and that moved no cursor, writes
// nothing and returns an empty fresh set, so neither the log nor the
// projection double-counts.
func TestAppendDedupsByRecordID(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	l := mustOpen(t, dir, reg)
	defer l.Close()
	at := time.Now()
	if _, err := l.Append(testBatch("a", "b"), at); err != nil {
		t.Fatalf("Append: %v", err)
	}
	sizeBefore := l.Stats().LogBytes

	// Same round again — re-collected from cursors older than the log.
	fresh, err := l.Append(testBatch("a", "b"), at)
	if err != nil {
		t.Fatalf("replay Append: %v", err)
	}
	if len(fresh.Records) != 0 {
		t.Fatalf("replayed batch returned %d fresh records, want 0", len(fresh.Records))
	}
	st := l.Stats()
	if st.LogBytes != sizeBefore {
		t.Fatalf("replayed batch grew the log: %d -> %d", sizeBefore, st.LogBytes)
	}
	if st.Deduped != 2 {
		t.Fatalf("Stats.Deduped = %d, want 2", st.Deduped)
	}
	if ds := l.Committed(); len(ds.Records) != 2 || ds.PostsByForum[corpus.ForumTwitter] != 2 {
		t.Fatalf("dataset after replayed batch: records=%d posts=%d, want 2/2",
			len(ds.Records), ds.PostsByForum[corpus.ForumTwitter])
	}

	// Mixed batch (partial overlap) keeps only the fresh record.
	fresh, err = l.Append(testBatch("b", "c"), at.Add(time.Second))
	if err != nil {
		t.Fatalf("mixed Append: %v", err)
	}
	if got := ids(fresh); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("mixed batch fresh IDs = %v, want [c]", got)
	}
}

// TestTornTailTruncatedOnOpen pins the crash-mid-append path: a final
// frame cut off mid-payload is discarded on open, counted in
// recordlog.truncated_tail, and the log is usable for appends again.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	if _, err := l.Append(testBatch("a", "b"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := l.Append(testBatch("c"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	intact := l.Stats().LogBytes
	if err := l.f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the final frame: keep its header and half its payload.
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	if int64(len(data)) != intact {
		t.Fatalf("log size = %d, stats said %d", len(data), intact)
	}
	// Find the second frame's start by decoding the first header.
	first := int(binary.LittleEndian.Uint32(data[1:5])) + frameHeader
	torn := first + frameHeader + (len(data)-first-frameHeader)/2
	if err := os.WriteFile(path, data[:torn], 0o644); err != nil {
		t.Fatalf("tear log: %v", err)
	}

	reg := telemetry.NewRegistry()
	l2 := mustOpen(t, dir, reg)
	defer l2.Close()
	if got := ids(l2.Committed()); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("after torn tail, IDs = %v, want [a b]", got)
	}
	st := l2.Stats()
	if st.TruncatedTail != 1 {
		t.Fatalf("Stats.TruncatedTail = %d, want 1", st.TruncatedTail)
	}
	if got := reg.Snapshot().CounterValue("recordlog.truncated_tail"); got != 1 {
		t.Fatalf("recordlog.truncated_tail counter = %d, want 1", got)
	}
	if int64(first) != st.LogBytes {
		t.Fatalf("log not truncated to frame boundary: size=%d want=%d", st.LogBytes, first)
	}

	// The torn record can land again — its ID was never committed.
	if _, err := l2.Append(testBatch("c"), time.Now()); err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
	if got := ids(l2.Committed()); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("after re-append, IDs = %v", got)
	}
}

// TestCorruptFrameRejectedOnOpen pins the bit-rot path: a frame whose
// payload no longer matches its CRC is rejected together with everything
// after it, counted in recordlog.corrupt_frames.
func TestCorruptFrameRejectedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	if _, err := l.Append(testBatch("a"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := l.Append(testBatch("b"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := l.Append(testBatch("c"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Flip one payload byte inside the SECOND frame; its CRC now lies.
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	first := int(binary.LittleEndian.Uint32(data[1:5])) + frameHeader
	data[first+frameHeader+4] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt log: %v", err)
	}

	reg := telemetry.NewRegistry()
	l2 := mustOpen(t, dir, reg)
	defer l2.Close()
	// Frame 2 and the (valid) frame 3 behind it are both gone: nothing
	// past a corrupt frame can be trusted.
	if got := ids(l2.Committed()); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("after corrupt frame, IDs = %v, want [a]", got)
	}
	st := l2.Stats()
	if st.CorruptFrames != 1 {
		t.Fatalf("Stats.CorruptFrames = %d, want 1", st.CorruptFrames)
	}
	if got := reg.Snapshot().CounterValue("recordlog.corrupt_frames"); got != 1 {
		t.Fatalf("recordlog.corrupt_frames counter = %d, want 1", got)
	}
	if int64(first) != st.LogBytes {
		t.Fatalf("log not truncated at corrupt frame: size=%d want=%d", st.LogBytes, first)
	}
}

// TestGarbageHeaderRejected pins the scribbled-header path: an absurd
// length field is treated as corruption, not as a 3 GiB allocation.
func TestGarbageHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	var hdr [frameHeader]byte
	hdr[0] = kindBatch
	binary.LittleEndian.PutUint32(hdr[1:5], maxFrame+1)
	if err := os.WriteFile(filepath.Join(dir, logName), hdr[:], 0o644); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	l := mustOpen(t, dir, nil)
	defer l.Close()
	if st := l.Stats(); st.CorruptFrames != 1 || st.LogBytes != 0 {
		t.Fatalf("garbage header: corrupt=%d size=%d, want 1/0", st.CorruptFrames, st.LogBytes)
	}
}

// TestUnknownKindRejected pins forward-compatibility handling: a frame
// kind this build does not know is corruption (the log is private to one
// binary version), truncated like any other damage.
func TestUnknownKindRejected(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"seq":1}`)
	var hdr [frameHeader]byte
	hdr[0] = 99
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(filepath.Join(dir, logName), append(hdr[:], payload...), 0o644); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	l := mustOpen(t, dir, nil)
	defer l.Close()
	if st := l.Stats(); st.CorruptFrames != 1 || st.LogBytes != 0 {
		t.Fatalf("unknown kind: corrupt=%d size=%d, want 1/0", st.CorruptFrames, st.LogBytes)
	}
}

// TestSnapshotPlusTailEqualsUninterrupted pins the restart-cost contract:
// a directory holding a snapshot plus a post-snapshot log tail replays to
// exactly the dataset an uninterrupted log yields.
func TestSnapshotPlusTailEqualsUninterrupted(t *testing.T) {
	at := time.Date(2026, 8, 3, 10, 0, 0, 0, time.UTC)
	batches := [][]string{{"a", "b"}, {"c"}, {"d", "e"}, {"f"}}

	// Uninterrupted: one log, never snapshotted, full replay.
	plain := t.TempDir()
	lp := mustOpen(t, plain, nil)
	for i, b := range batches {
		if _, err := lp.Append(testBatch(b...), at.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatalf("plain Append: %v", err)
		}
	}
	want := lp.Committed()
	lp.f.Close()

	// Snapshotted: same batches, forced snapshot midway, then a tail.
	snapped := t.TempDir()
	ls := mustOpen(t, snapped, nil)
	for i, b := range batches {
		if _, err := ls.Append(testBatch(b...), at.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatalf("snap Append: %v", err)
		}
		if i == 1 {
			if err := ls.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
		}
	}
	ls.f.Close()

	for _, dir := range []string{plain, snapped} {
		l := mustOpen(t, dir, nil)
		got := l.Committed()
		if !reflect.DeepEqual(ids(got), ids(want)) {
			t.Errorf("%s: IDs = %v, want %v", dir, ids(got), ids(want))
		}
		if got.PostsByForum[corpus.ForumTwitter] != want.PostsByForum[corpus.ForumTwitter] {
			t.Errorf("%s: posts = %d, want %d", dir,
				got.PostsByForum[corpus.ForumTwitter], want.PostsByForum[corpus.ForumTwitter])
		}
		l.Close()
	}
}

// TestCompactionTruncatesLogAndSurvivesReopen pins the bounded-restart
// contract: crossing CompactThreshold snapshots and empties the log, and
// a reopen of the compacted directory still holds everything.
func TestCompactionTruncatesLogAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	l, err := Open(Config{Dir: dir, CompactThreshold: 1}, reg) // every append compacts
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testBatch("a", "b"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	st := l.Stats()
	if st.Compactions != 1 {
		t.Fatalf("Stats.Compactions = %d, want 1", st.Compactions)
	}
	if st.LogBytes != 0 {
		t.Fatalf("log not truncated by compaction: %d bytes", st.LogBytes)
	}
	if got := reg.Snapshot().CounterValue("recordlog.compactions"); got != 1 {
		t.Fatalf("recordlog.compactions counter = %d, want 1", got)
	}
	if _, err := l.Append(testBatch("c"), time.Now()); err != nil {
		t.Fatalf("post-compaction Append: %v", err)
	}
	l.f.Close()

	l2 := mustOpen(t, dir, nil)
	defer l2.Close()
	if got := ids(l2.Committed()); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("after compaction+reopen, IDs = %v", got)
	}
}

// TestDuplicatedFrameReplayIsIdempotent pins why frames carry cumulative
// totals: replaying a log that contains the same round twice (the crash
// window re-append, with the dedup map lost in between) must not inflate
// records or totals.
func TestDuplicatedFrameReplayIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	if _, err := l.Append(testBatch("a", "b"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	l.f.Close()

	// Duplicate the single frame byte-for-byte with a bumped Seq — what a
	// re-collected round would have written had the dedup map been empty.
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	var fr batchFrame
	if err := json.Unmarshal(data[frameHeader:], &fr); err != nil {
		t.Fatalf("decode frame: %v", err)
	}
	fr.Seq++
	payload, err := json.Marshal(fr)
	if err != nil {
		t.Fatalf("encode frame: %v", err)
	}
	var hdr [frameHeader]byte
	hdr[0] = kindBatch
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	data = append(data, hdr[:]...)
	data = append(data, payload...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write duplicated log: %v", err)
	}

	l2 := mustOpen(t, dir, nil)
	defer l2.Close()
	ds := l2.Committed()
	if got := ids(ds); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("duplicated frame inflated records: %v", got)
	}
	if ds.PostsByForum[corpus.ForumTwitter] != 2 {
		t.Fatalf("duplicated frame inflated totals: posts=%d, want 2", ds.PostsByForum[corpus.ForumTwitter])
	}
}

// TestCorruptSnapshotIsAnError pins that a damaged snapshot refuses to
// open rather than silently starting empty (which would let the next
// snapshot destroy the only durable copy).
func TestCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("{not json"), 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	if _, err := Open(Config{Dir: dir}, nil); err == nil {
		t.Fatal("Open succeeded over a corrupt snapshot")
	}
}

// TestCloseSnapshotsDirtyState pins that Close leaves a fresh snapshot so
// the next open replays an empty tail.
func TestCloseSnapshotsDirtyState(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	if _, err := l.Append(testBatch("a"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot after Close: %v", err)
	}
	l2 := mustOpen(t, dir, nil)
	defer l2.Close()
	if got := ids(l2.Committed()); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("after Close+reopen, IDs = %v", got)
	}
}

// TestCloseAfterSnapshotWritesNoSecond pins that Close snapshots only
// frames the last snapshot does not hold: a drained daemon snapshots once
// and then closes, and that close must not marshal and fsync the whole
// dataset again. A reopened log that appends nothing writes none either.
func TestCloseAfterSnapshotWritesNoSecond(t *testing.T) {
	dir := t.TempDir()
	// A negative interval turns interval snapshots off, so every snapshot
	// counted below is an explicit one or Close's.
	open := func(reg *telemetry.Registry) *Log {
		t.Helper()
		l, err := Open(Config{Dir: dir, SnapshotInterval: -1}, reg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return l
	}
	reg := telemetry.NewRegistry()
	l := open(reg)
	if _, err := l.Append(testBatch("a", "b"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := reg.Counter("recordlog.snapshots").Value(); n != 1 {
		t.Fatalf("recordlog.snapshots = %d after Append, Snapshot, Close; want 1", n)
	}

	reg2 := telemetry.NewRegistry()
	l2 := open(reg2)
	if got := ids(l2.Committed()); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("after reopen, IDs = %v", got)
	}
	if _, err := l2.Append(testBatch("c"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l2.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if _, err := l2.Append(testBatch("d"), time.Now()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := reg2.Counter("recordlog.snapshots").Value(); n != 2 {
		t.Fatalf("recordlog.snapshots = %d with a frame appended after the last snapshot; want 2", n)
	}

	reg3 := telemetry.NewRegistry()
	l3 := open(reg3)
	if got := ids(l3.Committed()); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("after second reopen, IDs = %v", got)
	}
	if err := l3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := reg3.Counter("recordlog.snapshots").Value(); n != 0 {
		t.Fatalf("recordlog.snapshots = %d for a reopened log with no appends; want 0", n)
	}
}

// TestWriteAndFsyncTimedPerFrame pins the recordlog.write and
// recordlog.fsync histograms: one observation each per appended frame,
// batch and inject frames alike, and none for a fully deduplicated batch
// (which writes no frame).
func TestWriteAndFsyncTimedPerFrame(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := mustOpen(t, t.TempDir(), reg)
	defer l.Close()
	at := time.Date(2026, 8, 2, 9, 0, 0, 0, time.UTC)
	if _, err := l.Append(testBatch("a", "b"), at); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInject(core.InjectSpec{Seed: 7, Messages: 10}, at); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testBatch("c"), at); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testBatch("a"), at); err != nil { // replay: no frame
		t.Fatal(err)
	}
	frames := l.Stats().Appends
	if frames != 3 {
		t.Fatalf("appended frames = %d, want 3", frames)
	}
	for _, name := range []string{"recordlog.write", "recordlog.fsync"} {
		if n := reg.Histogram(name).Stats().Count; n != frames {
			t.Errorf("%s observations = %d, want one per frame (%d)", name, n, frames)
		}
	}
}

// TestCommittedIsAStableView pins the view Committed returns: it shares
// the log's records instead of copying them, and a later Append neither
// changes its length nor its elements.
func TestCommittedIsAStableView(t *testing.T) {
	l := mustOpen(t, t.TempDir(), nil)
	defer l.Close()
	at := time.Date(2026, 8, 2, 9, 0, 0, 0, time.UTC)
	if _, err := l.Append(testBatch("a", "b"), at); err != nil {
		t.Fatal(err)
	}
	view := l.Committed()
	if len(view.Records) != 2 || cap(view.Records) != 2 {
		t.Fatalf("view len/cap = %d/%d, want 2/2", len(view.Records), cap(view.Records))
	}
	if &view.Records[0] != &l.Committed().Records[0] {
		t.Fatal("Committed copied the records")
	}
	if _, err := l.Append(testBatch("c"), at); err != nil {
		t.Fatal(err)
	}
	if got := ids(view); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("earlier view changed after Append: %v", got)
	}
	if got := ids(l.Committed()); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("new view = %v, want a b c", got)
	}
	if view.PostsByForum[corpus.ForumTwitter] != 2 {
		t.Fatalf("earlier view's totals changed: %v", view.PostsByForum)
	}
}

// testCursor is a cursor of source at a position, stamped at a fixed time
// so it survives a JSON round trip unchanged.
func testCursor(source string, offset int) checkpoint.Cursor {
	return checkpoint.Cursor{
		Source:  source,
		Offset:  offset,
		Updated: time.Date(2026, 8, 2, 9, 0, offset, 0, time.UTC),
	}
}

// durableState is everything Open recovers that a round commits: record
// IDs, curation totals and cursors, encoded so two states compare as
// strings.
func durableState(t *testing.T, l *Log) string {
	t.Helper()
	ds := l.Committed()
	data, err := json.Marshal(struct {
		IDs            []string
		Posts          map[corpus.Forum]int
		DecoysRejected int
		Cursors        map[string]checkpoint.Cursor
	}{ids(ds), ds.PostsByForum, ds.DecoysRejected, l.Cursors()})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTornRoundFrameIsAllOrNothing cuts the bytes the last round's Append
// wrote at every offset, and separately flips a byte of its CRC. Each time
// Open must recover either the state before that round or the state after
// it — records, totals and cursors together — and never the records
// without the cursors that produced them.
func TestTornRoundFrameIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	at := time.Date(2026, 8, 2, 9, 0, 0, 0, time.UTC)
	if _, err := l.Append(testBatch("a", "b"), at, testCursor("twitter", 1), testCursor("reddit", 1)); err != nil {
		t.Fatal(err)
	}
	before, start := durableState(t, l), l.Stats().LogBytes
	last := testBatch("c", "d")
	last.DecoysRejected = 3
	if _, err := l.Append(last, at.Add(time.Second), testCursor("twitter", 2), testCursor("pastebin", 1)); err != nil {
		t.Fatal(err)
	}
	after, end := durableState(t, l), l.Stats().LogBytes
	if before == after {
		t.Fatal("the last round changed nothing")
	}
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != end {
		t.Fatalf("log holds %d bytes, stats said %d", len(data), end)
	}

	reopen := func(log []byte) string {
		t.Helper()
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		l := mustOpen(t, dir, nil)
		defer l.f.Close() // no Close snapshot: the next reopen reads the log again
		return durableState(t, l)
	}
	for cut := start; cut < end; cut++ {
		if got := reopen(data[:cut]); got != before {
			t.Fatalf("cut at byte %d of the round's %d..%d: recovered\n%s\nwant the state before the round\n%s", cut, start, end, got, before)
		}
	}
	if got := reopen(data); got != after {
		t.Fatalf("intact log recovered\n%s\nwant\n%s", got, after)
	}
	flipped := append([]byte(nil), data...)
	flipped[start+5] ^= 0xFF // first CRC byte of the round's frame
	if got := reopen(flipped); got != before {
		t.Fatalf("flipped CRC: recovered\n%s\nwant the state before the round\n%s", got, before)
	}
}

// TestCursorsCommitWithTheirRound pins that a round commits its moved
// cursors even when it has no fresh record — a round that only moved a
// cursor, and one whose records were all logged already — and that
// snapshots and compaction carry the latest cursor of every source.
func TestCursorsCommitWithTheirRound(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	l := mustOpen(t, dir, reg)
	at := time.Date(2026, 8, 2, 9, 0, 0, 0, time.UTC)
	if _, err := l.Append(testBatch("a", "b"), at, testCursor("twitter", 1)); err != nil {
		t.Fatal(err)
	}
	empty := &core.Dataset{}
	if fresh, err := l.Append(empty, at, testCursor("smishtank", 4)); err != nil || !datasetEmpty(fresh) {
		t.Fatalf("cursor-only round: fresh %+v, err %v", fresh, err)
	}
	if fresh, err := l.Append(testBatch("a", "b"), at, testCursor("twitter", 2)); err != nil || !datasetEmpty(fresh) {
		t.Fatalf("deduplicated round: fresh %+v, err %v", fresh, err)
	}
	if _, err := l.Append(empty, at); err != nil { // nothing to commit: no frame
		t.Fatal(err)
	}
	if _, err := l.Append(empty, at, checkpoint.Cursor{}); err == nil {
		t.Fatal("Append took a cursor with no source")
	}
	if n := reg.Counter("recordlog.appends").Value(); n != 3 {
		t.Fatalf("recordlog.appends = %d, want one frame per committing round (3)", n)
	}
	want := durableState(t, l)
	if c := l.Cursors(); len(c) != 2 || c["twitter"].Offset != 2 || c["smishtank"].Offset != 4 {
		t.Fatalf("cursors after the rounds: %+v", c)
	}
	if ds := l.Committed(); len(ds.Records) != 2 || ds.PostsByForum[corpus.ForumTwitter] != 2 {
		t.Fatalf("a round without fresh records changed the dataset: %d records, %d posts",
			len(ds.Records), ds.PostsByForum[corpus.ForumTwitter])
	}
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	// The first Append snapshotted, so the cursors past it replay from the
	// log tail.
	l2 := mustOpen(t, dir, nil)
	if got := durableState(t, l2); got != want {
		t.Fatalf("replayed from snapshot + tail:\n%s\nwant\n%s", got, want)
	}
	l2.f.Close()

	// Compaction leaves only the snapshot to carry every cursor.
	l3, err := Open(Config{Dir: dir, CompactThreshold: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l3.Append(empty, at, testCursor("pastebin", 1)); err != nil {
		t.Fatal(err)
	}
	if st := l3.Stats(); st.Compactions != 1 || st.LogBytes != 0 {
		t.Fatalf("compactions %d, log %d bytes; want a compacted, empty log", st.Compactions, st.LogBytes)
	}
	want = durableState(t, l3)
	l3.f.Close()
	l4 := mustOpen(t, dir, nil)
	defer l4.Close()
	if got := durableState(t, l4); got != want {
		t.Fatalf("replayed from the compacted snapshot:\n%s\nwant\n%s", got, want)
	}
	if len(l4.Cursors()) != 3 {
		t.Fatalf("compacted snapshot carries %d cursors, want 3", len(l4.Cursors()))
	}
}
