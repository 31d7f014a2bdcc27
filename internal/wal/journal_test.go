package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// testSnaps builds n distinguishable snapshots for vm.
func testSnaps(vm string, n, dims int, base float64) []metrics.Snapshot {
	out := make([]metrics.Snapshot, n)
	for i := range out {
		vals := make([]float64, dims)
		for j := range vals {
			vals[j] = base + float64(i*dims+j)
		}
		out[i] = metrics.Snapshot{
			Time:   time.Duration(i) * 5 * time.Second,
			Node:   vm,
			Values: vals,
		}
	}
	return out
}

func openTestJournal(t *testing.T, cfg Config) *Journal {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	j, err := Open(cfg)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestAppendReplayRoundTrip(t *testing.T) {
	j := openTestJournal(t, Config{Fsync: FsyncNever})
	want := map[string][]metrics.Snapshot{
		"vm-a": testSnaps("vm-a", 7, 4, 100),
		"vm-b": testSnaps("vm-b", 3, 4, 200),
	}
	if _, err := j.AppendBatch("vm-a", want["vm-a"][:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendBatch("vm-b", want["vm-b"]); err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendBatch("vm-a", want["vm-a"][5:]); err != nil {
		t.Fatal(err)
	}
	const stamp = 1_700_000_000_123_456_789
	if _, err := j.AppendFinalize("vm-b", stamp); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got := map[string][]metrics.Snapshot{}
	finalized := map[string]bool{}
	stats, err := Replay(j.Dir(), Position{}, func(pos Position, rec Record) error {
		switch rec.Type {
		case RecordBatch:
			got[rec.VM] = append(got[rec.VM], rec.Snaps...)
		case RecordFinalize:
			finalized[rec.VM] = true
			if rec.At != stamp {
				t.Errorf("finalize marker for %s replayed stamp %d, want %d", rec.VM, rec.At, stamp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.Records != 4 || stats.Snapshots != 10 || stats.Truncated {
		t.Errorf("replay stats = %+v, want 4 records, 10 snapshots, not truncated", stats)
	}
	if !finalized["vm-b"] || finalized["vm-a"] {
		t.Errorf("finalized = %v, want only vm-b", finalized)
	}
	for vm, snaps := range want {
		if len(got[vm]) != len(snaps) {
			t.Fatalf("%s: replayed %d snapshots, want %d", vm, len(got[vm]), len(snaps))
		}
		for i := range snaps {
			g := got[vm][i]
			if g.Time != snaps[i].Time || g.Node != vm {
				t.Fatalf("%s snapshot %d = {%v %s}, want {%v %s}", vm, i, g.Time, g.Node, snaps[i].Time, vm)
			}
			for k, v := range snaps[i].Values {
				if g.Values[k] != v {
					t.Fatalf("%s snapshot %d value %d = %v, want %v", vm, i, k, g.Values[k], v)
				}
			}
		}
	}
}

func TestAppendValidation(t *testing.T) {
	j := openTestJournal(t, Config{Fsync: FsyncNever})
	if _, err := j.AppendBatch("", testSnaps("x", 1, 2, 0)); err == nil {
		t.Error("empty vm name: want error")
	}
	if _, err := j.AppendBatch("vm", nil); err == nil {
		t.Error("empty batch: want error")
	}
	mixed := append(testSnaps("vm", 1, 2, 0), testSnaps("vm", 1, 3, 0)...)
	if _, err := j.AppendBatch("vm", mixed); err == nil {
		t.Error("mixed dims: want error")
	}
	if _, err := j.AppendFinalize("", 1); err == nil {
		t.Error("empty finalize vm: want error")
	}
	if _, err := j.AppendFinalize("vm", -1); err == nil {
		t.Error("negative finalize stamp: want error")
	}
}

func TestReplayFromPosition(t *testing.T) {
	j := openTestJournal(t, Config{Fsync: FsyncNever})
	var mid Position
	for i := 0; i < 10; i++ {
		pos, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			mid = pos
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var records int
	stats, err := Replay(j.Dir(), mid, func(pos Position, rec Record) error {
		records++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if records != 4 || stats.Records != 4 {
		t.Errorf("replayed %d records from mid position, want 4 (stats %+v)", records, stats)
	}
	// Replaying from the journal's end position yields nothing.
	stats, err = Replay(j.Dir(), Position{Seg: j.w.Seq(), Off: j.w.Size()}, func(Position, Record) error {
		t.Error("unexpected record past end position")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 {
		t.Errorf("replay from end = %+v, want 0 records", stats)
	}
}

// appendBatches appends n four-snapshot batches for one VM: about
// seven fill a 2 KiB segment.
func appendBatches(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := j.AppendBatch("vm", testSnaps("vm", 4, 8, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// checkpointNow saves a checkpoint covering everything appended so far
// and moves the retention floor to it, as the server's Checkpoint does.
func checkpointNow(t *testing.T, j *Journal) Position {
	t.Helper()
	pos := j.Pos()
	if _, err := SaveCheckpoint(j.Dir(), pos, time.Unix(1700000000, 0), "", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	j.SetRetainFloor(pos.Seg)
	return pos
}

// segSeqs lists the sequence numbers of the segments in dir.
func segSeqs(t *testing.T, dir string) []uint64 {
	t.Helper()
	segs, err := segFormat.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(segs))
	for i, s := range segs {
		out[i] = s.Seq
	}
	return out
}

// seqRange returns lo, lo+1, ..., hi.
func seqRange(lo, hi uint64) []uint64 {
	var out []uint64
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// replayClean replays dir from `from` and fails unless the walk finds
// no missing segment and no tear and delivers want records.
func replayClean(t *testing.T, dir string, from Position, want int) {
	t.Helper()
	st, err := Replay(dir, from, func(Position, Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(st.MissingSegments) != 0 || st.Truncated || st.Records != want {
		t.Errorf("replay from %+v = %+v, want %d records, no missing segment and no tear", from, st, want)
	}
}

// TestSegmentRotationAndRetention: checkpoints decide what the journal
// keeps. After four checkpoints across rotations, and ingest after the
// newest, exactly the segments from the older kept checkpoint's segment
// on are left, every one before it is counted deleted, and the journal
// replays cleanly from either kept checkpoint.
func TestSegmentRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 2 << 10})
	var cps []Position
	for round := 0; round < 4; round++ {
		appendBatches(t, j, 25)
		cps = append(cps, checkpointNow(t, j))
		if round > 0 && cps[round].Seg <= cps[round-1].Seg {
			t.Fatalf("checkpoints at %+v: want each in a later segment", cps)
		}
	}
	appendBatches(t, j, 10)
	st := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	older, newest := cps[2], cps[3]
	if got, want := segSeqs(t, dir), seqRange(older.Seg, st.ActiveSeg); !slices.Equal(got, want) {
		t.Errorf("segments on disk = %v, want %v", got, want)
	}
	if st.TruncatedSegments != int64(older.Seg-1) || st.Segments != int(st.ActiveSeg-older.Seg+1) {
		t.Errorf("stats = %+v, want %d segment(s) deleted and %d left", st, older.Seg-1, st.ActiveSeg-older.Seg+1)
	}
	replayClean(t, dir, older, 25+10)
	replayClean(t, dir, newest, 10)
}

// TestPruneRespectsRetainFloor: the floor trims only when it moves, and
// then only below where it was. Without a checkpoint nothing goes,
// however many segments rotate; the first floor, a repeated one and a
// lower one delete nothing; a segment whose remove fails stops the
// trim there, keeping the journal contiguous, and the next move
// deletes it.
func TestPruneRespectsRetainFloor(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var logs []string
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 2 << 10, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	appendBatches(t, j, 50)
	all := segSeqs(t, dir)
	if len(all) < 6 {
		t.Fatalf("segments = %v, want at least 6", all)
	}
	j.SetRetainFloor(3)
	j.SetRetainFloor(3)
	j.SetRetainFloor(2)
	if got := segSeqs(t, dir); !slices.Equal(got, all) || j.Stats().TruncatedSegments != 0 {
		t.Fatalf("segments = %v, truncated %d; want %v untouched", got, j.Stats().TruncatedSegments, all)
	}

	// A non-empty directory under segment 1's name cannot be removed.
	seg1 := segFormat.Path(dir, 1)
	if err := os.Remove(seg1); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(seg1, "busy"), 0o755); err != nil {
		t.Fatal(err)
	}
	j.SetRetainFloor(4)
	if got := segSeqs(t, dir); !slices.Equal(got, all) || j.Stats().TruncatedSegments != 0 {
		t.Errorf("segments = %v, truncated %d after a failed remove; want %v kept", got, j.Stats().TruncatedSegments, all)
	}
	mu.Lock()
	failed := slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, "retention: remove") })
	mu.Unlock()
	if !failed {
		t.Errorf("logs %q: want the failed remove logged", logs)
	}

	if err := os.RemoveAll(seg1); err != nil {
		t.Fatal(err)
	}
	j.SetRetainFloor(5)
	if got, want := segSeqs(t, dir), all[3:]; !slices.Equal(got, want) || j.Stats().TruncatedSegments != 3 {
		t.Errorf("segments = %v, truncated %d; want %v, segments 1-3 deleted", got, j.Stats().TruncatedSegments, want)
	}
}

// TestOpenSeedsRetainFloorFromCheckpoint: a journal reopened over a
// directory holding a checkpoint starts with its floor at that
// checkpoint's segment, so its first checkpoint already trims what the
// old one no longer needs, and keeps what it does.
func TestOpenSeedsRetainFloorFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 2 << 10}
	j := openTestJournal(t, cfg)
	appendBatches(t, j, 25)
	pos := checkpointNow(t, j)
	appendBatches(t, j, 5)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if pos.Seg < 2 {
		t.Fatalf("checkpoint at %+v, want segments before it", pos)
	}

	j2 := openTestJournal(t, cfg)
	appendBatches(t, j2, 25)
	pos2 := checkpointNow(t, j2)
	st := j2.Stats()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := segSeqs(t, dir), seqRange(pos.Seg, st.ActiveSeg); !slices.Equal(got, want) {
		t.Errorf("segments on disk = %v, want %v", got, want)
	}
	if st.TruncatedSegments != int64(pos.Seg-1) {
		t.Errorf("truncated %d segment(s), want %d", st.TruncatedSegments, pos.Seg-1)
	}
	replayClean(t, dir, pos, 5+25)
	replayClean(t, dir, pos2, 0)
}

// TestCheckpointFallbackKeepsItsSegments is the fallback promise: with
// the newest checkpoint unreadable, recovery starts from the older kept
// one, and retention has left every segment it replays from.
func TestCheckpointFallbackKeepsItsSegments(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 2 << 10})
	var cps []Position
	for round := 0; round < 3; round++ {
		appendBatches(t, j, 25)
		cps = append(cps, checkpointNow(t, j))
	}
	appendBatches(t, j, 20)
	st := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	older := cps[1]
	if st.TruncatedSegments == 0 || older.Seg <= cps[0].Seg {
		t.Fatalf("checkpoints at %+v, stats %+v: want segments deleted before the older kept checkpoint", cps, st)
	}
	if got, want := segSeqs(t, dir), seqRange(older.Seg, st.ActiveSeg); !slices.Equal(got, want) {
		t.Errorf("segments on disk = %v, want %v", got, want)
	}

	ckpts, err := checkpointNames.List(dir)
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("checkpoints %+v (err %v), want two kept", ckpts, err)
	}
	if err := os.WriteFile(checkpointNames.Path(dir, ckpts[1].Seq), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LatestCheckpoint(dir)
	if err != nil || cp == nil || cp.Seq != ckpts[0].Seq || cp.Pos != older {
		t.Fatalf("LatestCheckpoint = %+v (err %v), want checkpoint %d at %+v", cp, err, ckpts[0].Seq, older)
	}
	replayClean(t, dir, cp.Pos, 25+20)
}

// TestOpenRemovesCrashedTempFiles: a crash during a checkpoint write or
// a scrub repair leaves the temp file of its atomic publish in the
// journal directory; the next Open removes it and leaves the segments
// and checkpoints alone.
func TestOpenRemovesCrashedTempFiles(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	appendBatches(t, j, 3)
	pos := checkpointNow(t, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	temps := []string{
		filepath.Base(checkpointNames.Path(dir, 2)) + ".tmp1234567",
		filepath.Base(segFormat.Path(dir, 1)) + ".tmp7654321",
	}
	for _, name := range temps {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	segs := segSeqs(t, dir)

	j2 := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	for _, name := range temps {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s after Open: stat err %v, want it removed", name, err)
		}
	}
	if got, want := segSeqs(t, dir), append(segs, j2.Pos().Seg); !slices.Equal(got, want) {
		t.Errorf("segments after Open = %v, want %v", got, want)
	}
	if cp, err := LatestCheckpoint(dir); err != nil || cp == nil || cp.Pos != pos {
		t.Errorf("LatestCheckpoint after Open = %+v (err %v), want the one at %+v", cp, err, pos)
	}
	replayClean(t, dir, Position{}, 3)
}

// TestAppendFailureAbandonsSegment simulates an I/O failure mid-append
// (the segment file vanishes out from under the journal): the journal
// must not keep appending at offsets past the failure — it abandons the
// segment for a fresh one, and both the pre-failure and post-failure
// records replay cleanly.
func TestAppendFailureAbandonsSegment(t *testing.T) {
	j := openTestJournal(t, Config{Fsync: FsyncNever})
	if _, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	firstSeg := j.Pos().Seg
	j.w.File().Close() // force the next write to fail
	if _, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, 1)); err == nil {
		t.Fatal("append to a closed file: want error")
	}
	pos, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, 2))
	if err != nil {
		t.Fatalf("append after abandoned segment: %v", err)
	}
	if pos.Seg <= firstSeg {
		t.Errorf("post-failure append landed in segment %d, want > %d", pos.Seg, firstSeg)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(j.Dir(), Position{}, func(Position, Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.Truncated || len(stats.MissingSegments) != 0 {
		t.Errorf("replay stats = %+v, want 2 clean records across the abandoned boundary", stats)
	}
}

func TestReopenStartsNewSegment(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	if _, err := j.AppendBatch("vm", testSnaps("vm", 1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	first := j.Pos().Seg
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	if j2.Pos().Seg <= first {
		t.Errorf("reopened active segment %d, want > %d", j2.Pos().Seg, first)
	}
	if _, err := j2.AppendBatch("vm", testSnaps("vm", 1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(dir, Position{}, func(Position, Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 {
		t.Errorf("replay across reopen = %+v, want 2 records", stats)
	}
}

func TestFsyncPolicies(t *testing.T) {
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy(bogus): want error")
	}
	for _, spec := range []string{"always", "interval", "never"} {
		pol, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%s): %v", spec, err)
		}
		if pol.String() != spec {
			t.Errorf("Policy round trip %q -> %q", spec, pol.String())
		}
		j := openTestJournal(t, Config{Fsync: pol, FsyncEvery: 5 * time.Millisecond})
		if _, err := j.AppendBatch("vm", testSnaps("vm", 1, 2, 0)); err != nil {
			t.Fatalf("append under %s: %v", spec, err)
		}
		switch pol {
		case FsyncAlways:
			if st := j.Stats(); st.Syncs == 0 {
				t.Errorf("fsync=always: no sync after append (stats %+v)", st)
			}
		case FsyncInterval:
			deadline := time.Now().Add(2 * time.Second)
			for j.Stats().Syncs == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if st := j.Stats(); st.Syncs == 0 {
				t.Errorf("fsync=interval: background syncer never ran (stats %+v)", st)
			}
		case FsyncNever:
			if st := j.Stats(); st.Syncs != 0 {
				t.Errorf("fsync=never: unexpected syncs (stats %+v)", st)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close under %s: %v", spec, err)
		}
	}
}

// TestAppendBatchZeroAllocs pins the journal append path: with
// fsync=never and the encode buffer warmed by one append, an
// 8-snapshot batch of 33 metrics is framed and written without
// allocating.
func TestAppendBatchZeroAllocs(t *testing.T) {
	j := openTestJournal(t, Config{Fsync: FsyncNever})
	snaps := testSnaps("vm", 8, 33, 0)
	if _, err := j.AppendBatch("vm", snaps); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := j.AppendBatch("vm", snaps); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendBatch allocates %v per run, want 0", allocs)
	}
}

func TestStatsTrackDepth(t *testing.T) {
	j := openTestJournal(t, Config{Fsync: FsyncNever})
	st := j.Stats()
	if st.Segments != 1 || st.Bytes != headerSize {
		t.Errorf("fresh stats = %+v, want 1 segment of %d bytes", st, headerSize)
	}
	if _, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	st = j.Stats()
	if st.Appends != 1 || st.Bytes <= headerSize {
		t.Errorf("post-append stats = %+v", st)
	}
	// Bytes must agree with the on-disk reality.
	entries, err := os.ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var disk int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		disk += info.Size()
	}
	if disk != st.Bytes {
		t.Errorf("stats.Bytes = %d, on disk %d", st.Bytes, disk)
	}
}

func TestClosedJournalRejectsUse(t *testing.T) {
	j := openTestJournal(t, Config{Fsync: FsyncNever})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := j.AppendBatch("vm", testSnaps("vm", 1, 2, 0)); err == nil {
		t.Error("append after close: want error")
	}
	if err := j.Sync(); err == nil {
		t.Error("sync after close: want error")
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", "journal-abc.wal", "journal-00000001.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	if got := j.Pos().Seg; got != 1 {
		t.Errorf("active segment = %d, want 1 (foreign files ignored)", got)
	}
}

// TestFinalizeMarkerStampOptional pins the finalize payload: the
// unstamped layout markers had before stamping still decodes (stamp 0),
// a stamped one carries its stamp, and a stamp field holding 0 or a
// negative stamp is malformed.
func TestFinalizeMarkerStampOptional(t *testing.T) {
	parent := []byte{byte(RecordFinalize), 2, 0, 'v', 'm'}
	if rec, err := decodePayload(parent); err != nil || rec.Type != RecordFinalize || rec.VM != "vm" || rec.At != 0 {
		t.Errorf("unstamped marker decoded to %+v (err %v)", rec, err)
	}
	stamped, err := appendFinalizePayload(nil, "vm", 1_700_000_000_000_000_007)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(stamped, parent) || len(stamped) != len(parent)+8 {
		t.Errorf("stamped marker %x does not extend the unstamped layout %x by 8 bytes", stamped, parent)
	}
	if rec, err := decodePayload(stamped); err != nil || rec.At != 1_700_000_000_000_000_007 {
		t.Errorf("stamped marker decoded to %+v (err %v)", rec, err)
	}
	for _, stamp := range []uint64{0, 1 << 63} {
		bad := binary.LittleEndian.AppendUint64(append([]byte(nil), parent...), stamp)
		if _, err := decodePayload(bad); err == nil {
			t.Errorf("marker with stamp field %d decoded", int64(stamp))
		}
	}
}
