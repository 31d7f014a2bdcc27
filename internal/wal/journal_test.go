package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
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

func TestSegmentRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{
		Dir:          dir,
		Fsync:        FsyncNever,
		SegmentBytes: 2 << 10, // rotate every ~2 KiB
		MaxBytes:     4 << 10, // keep ~4 KiB of closed segments
	})
	for i := 0; i < 100; i++ {
		if _, err := j.AppendBatch("vm", testSnaps("vm", 4, 8, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Rotations == 0 {
		t.Fatalf("stats = %+v, want rotations > 0", st)
	}
	if st.TruncatedSegments == 0 {
		t.Fatalf("stats = %+v, want retention-truncated segments > 0", st)
	}
	segs, err := segFormat.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, s := range segs {
		onDisk += s.Size
	}
	// Retention bounds closed segments; the final (active-at-close)
	// segment rides on top.
	if max := int64(4<<10) + (2<<10)*2; onDisk > max {
		t.Errorf("journal holds %d bytes on disk, want <= %d", onDisk, max)
	}
	// The surviving tail must still replay cleanly from the earliest
	// remaining segment.
	stats, err := Replay(dir, Position{}, func(Position, Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated || stats.Records == 0 {
		t.Errorf("post-retention replay = %+v, want clean nonzero records", stats)
	}
}

// TestPruneRespectsRetainFloor caps the journal hard but pins the
// retention floor at the first segment: nothing may be pruned, because
// every segment is still needed by the (simulated) newest checkpoint.
func TestPruneRespectsRetainFloor(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{
		Dir:          dir,
		Fsync:        FsyncNever,
		SegmentBytes: 2 << 10,
		MaxBytes:     1, // everything over cap; only the floor protects segments
	})
	j.SetRetainFloor(1)
	for i := 0; i < 100; i++ {
		if _, err := j.AppendBatch("vm", testSnaps("vm", 4, 8, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Rotations == 0 || st.TruncatedSegments != 0 {
		t.Fatalf("stats = %+v, want rotations > 0 and no retention-truncated segments", st)
	}
	segs, err := segFormat.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0].Seq != 1 {
		t.Fatalf("segments = %+v, want segment 1 retained", segs)
	}
	// Raising the floor releases the older segments on the next prune.
	j2 := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 2 << 10, MaxBytes: 1})
	j2.SetRetainFloor(j2.Pos().Seg)
	if err := j2.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if st := j2.Stats(); st.TruncatedSegments == 0 {
		t.Errorf("stats = %+v, want old segments pruned once the floor moved past them", st)
	}
}

// TestOpenSeedsRetainFloorFromCheckpoint: a journal reopened over a
// directory holding a checkpoint must not prune the segments the
// checkpoint still points into, even under a tight MaxBytes.
func TestOpenSeedsRetainFloorFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	pos, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveCheckpoint(dir, pos, time.Unix(1700000000, 0), "", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	j2 := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 2 << 10, MaxBytes: 1})
	for i := 0; i < 100; i++ {
		if _, err := j2.AppendBatch("vm", testSnaps("vm", 4, 8, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segFormat.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0].Seq != pos.Seg {
		t.Fatalf("segments = %+v, want checkpointed segment %d retained", segs, pos.Seg)
	}
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
