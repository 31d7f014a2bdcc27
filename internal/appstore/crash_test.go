package appstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"syscall"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/faultinject"
)

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best uint64
	var path string
	for _, e := range ents {
		if no, ok := segFormat.Parse(e.Name()); ok && no >= best {
			best, path = no, filepath.Join(dir, e.Name())
		}
	}
	if path == "" {
		t.Fatal("no segment files found")
	}
	return path
}

// TestCrashMidAppend kills an append partway through the frame — the
// classic torn tail — and asserts that reopening loses nothing before
// the tear and repairs the segment in place.
func TestCrashMidAppend(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func(size int64) int64 // bytes to keep of the final frame's bed
	}{
		{"mid-payload", func(size int64) int64 { return size - 7 }},
		{"mid-frame-header", func(size int64) int64 { return size - 2 }},
		{"garbage-tail", func(size int64) int64 { return size }}, // keep all, then append junk
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			s := openTest(t, dir, Options{})
			const n = 12
			for i := 0; i < n; i++ {
				r := testRecord("vm", appclass.CPU, i)
				if err := s.Append(&r); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()

			path := lastSegment(t, dir)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if tear.name == "garbage-tail" {
				// A frame header written but payload garbage — what a crash
				// between write and fsync can leave on some filesystems.
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{0xFF, 0x13, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			} else {
				if err := os.Truncate(path, tear.cut(fi.Size())); err != nil {
					t.Fatal(err)
				}
			}

			s2 := openTest(t, dir, Options{})
			wantLost := 1
			if tear.name == "garbage-tail" {
				wantLost = 0 // all real records precede the junk
			}
			if got := s2.Len(); got != n-wantLost {
				t.Fatalf("Len after torn-tail reopen = %d, want %d", got, n-wantLost)
			}
			runs, err := s2.Runs("vm")
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range runs {
				if r.Samples != 10+i {
					t.Fatalf("record %d corrupted or out of order after repair", i)
				}
			}
			// The tail is repaired: appending works and survives another
			// reopen with no further loss.
			extra := testRecord("vm", appclass.CPU, 100)
			if err := s2.Append(&extra); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			s3 := openTest(t, dir, Options{})
			if got := s3.Len(); got != n-wantLost+1 {
				t.Errorf("Len after repair+append+reopen = %d, want %d", got, n-wantLost+1)
			}
		})
	}
}

// TestCrashMidCompaction exercises both crash windows of a compaction:
// before the new segment's atomic rename (a stray .tmp must be swept,
// nothing lost) and after it but before the victims are deleted (the
// duplicated records must deduplicate by sequence number).
func TestCrashMidCompaction(t *testing.T) {
	build := func(t *testing.T) (string, int) {
		dir := filepath.Join(t.TempDir(), "store")
		s := openTest(t, dir, Options{SegmentBytes: 600})
		for i := 0; i < 12; i++ {
			r := testRecord("vm", appclass.CPU, i)
			if err := s.Append(&r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Prune(8); err != nil {
			t.Fatal(err)
		}
		got, err := s.Runs("vm")
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		return dir, len(got)
	}

	t.Run("before-rename", func(t *testing.T) {
		dir, want := build(t)
		// A compaction output that never got renamed into place.
		tmp := filepath.Join(dir, "store-99999999.seg.tmp")
		if err := os.WriteFile(tmp, []byte("half-written compaction output"), 0o644); err != nil {
			t.Fatal(err)
		}
		s := openTest(t, dir, Options{SegmentBytes: 600})
		if got := s.Len(); got != want {
			t.Errorf("Len = %d, want %d", got, want)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf(".tmp file survived reopen: %v", err)
		}
	})

	t.Run("after-rename-duplicates", func(t *testing.T) {
		dir, want := build(t)
		// Duplicate the newest segment under a higher number — exactly the
		// state after a compaction renamed its output but crashed before
		// deleting a victim: the same sequence numbers exist twice.
		src := lastSegment(t, dir)
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "store-00009999.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openTest(t, dir, Options{SegmentBytes: 600})
		if got := s.Len(); got != want {
			t.Errorf("Len with duplicated segment = %d, want %d (dedupe by seq failed?)", got, want)
		}
		runs, err := s.Runs("vm")
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, r := range runs {
			if seen[r.Samples] {
				t.Fatalf("record Samples=%d returned twice", r.Samples)
			}
			seen[r.Samples] = true
		}
		// Every frame of the duplicated segment lost the dedup, so nothing
		// indexes into it and compaction would never visit it (live=0,
		// dead=0): reopen must reclaim the orphan, not leak it forever.
		if _, err := os.Stat(filepath.Join(dir, "store-00009999.seg")); !os.IsNotExist(err) {
			t.Errorf("fully duplicated segment survived reopen (stat err: %v)", err)
		}
		if st := s.Stats(); int64(st.LiveRecords) == 0 || st.Bytes != onDiskSegBytes(t, dir) {
			t.Errorf("Stats inconsistent after orphan cleanup: %+v vs %d on-disk bytes", st, onDiskSegBytes(t, dir))
		}
	})
}

// onDiskSegBytes sums the sizes of the directory's segment files.
func onDiskSegBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		if _, ok := segFormat.Parse(e.Name()); ok {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += fi.Size()
		}
	}
	return total
}

// TestCorruptHeaderQuarantine smashes the newest segment's header and
// asserts the segment is quarantined aside — not counted with a
// fabricated SegmentBytes size that would skew Stats.Bytes and the
// MaxBytes retention total — while records in older segments survive
// and the store keeps taking appends.
func TestCorruptHeaderQuarantine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{SegmentBytes: 600})
	const n = 12
	for i := 0; i < n; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// The newest segment may be freshly rotated and empty; smash the
	// newest one that actually holds records.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best uint64
	var path string
	for _, e := range ents {
		no, ok := segFormat.Parse(e.Name())
		if !ok || no < best {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > int64(headerSize) {
			best, path = no, filepath.Join(dir, e.Name())
		}
	}
	if path == "" {
		t.Fatal("no non-empty segment found")
	}
	if err := os.WriteFile(path, append([]byte("not a segment"), make([]byte, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{SegmentBytes: 600})
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt segment still present as %s (stat err: %v)", path, err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt segment not quarantined to %s.corrupt: %v", path, err)
	}
	// The records in older, intact segments survive as a contiguous
	// prefix of the appended sequence.
	runs, err := s2.Runs("vm")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 || len(runs) >= n {
		t.Fatalf("got %d surviving records, want between 1 and %d", len(runs), n-1)
	}
	for i, r := range runs {
		if r.Samples != 10+i {
			t.Fatalf("surviving record %d has Samples=%d, want %d", i, r.Samples, 10+i)
		}
	}
	// The byte accounting reflects the real on-disk segments only — a
	// fabricated SegmentBytes-sized phantom here would make the MaxBytes
	// retention cap prune live records prematurely.
	if st := s2.Stats(); st.Bytes != onDiskSegBytes(t, dir) {
		t.Errorf("Stats.Bytes = %d, on-disk segment bytes = %d", st.Bytes, onDiskSegBytes(t, dir))
	}
	extra := testRecord("vm", appclass.CPU, 100)
	if err := s2.Append(&extra); err != nil {
		t.Fatal(err)
	}
	before := s2.Len()
	s2.Close()
	s3 := openTest(t, dir, Options{SegmentBytes: 600})
	if got := s3.Len(); got != before {
		t.Errorf("Len after quarantine+append+reopen = %d, want %d", got, before)
	}
}

// indexSnapshot flattens the in-memory index for comparison.
type indexSnapshot struct {
	Entries []entry
	ByApp   map[string][]uint64
	ByClass map[appclass.Class][]uint64
	ByVerd  map[appclass.Class][]uint64
	ByModel map[string][]uint64
}

func snapshotIndex(s *Store) indexSnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := indexSnapshot{
		ByApp:   map[string][]uint64{},
		ByClass: map[appclass.Class][]uint64{},
		ByVerd:  map[appclass.Class][]uint64{},
		ByModel: map[string][]uint64{},
	}
	snap.Entries = append(snap.Entries, s.entries...)
	seqs := func(idxs []int) []uint64 {
		out := make([]uint64, len(idxs))
		for i, idx := range idxs {
			out[i] = s.entries[idx].seq
		}
		return out
	}
	for k, v := range s.byApp {
		snap.ByApp[k] = seqs(v)
	}
	for k, v := range s.byClass {
		snap.ByClass[k] = seqs(v)
	}
	for k, v := range s.byVerd {
		snap.ByVerd[k] = seqs(v)
	}
	for k, v := range s.byModel {
		snap.ByModel[k] = seqs(v)
	}
	return snap
}

// TestIndexRebuildBitIdentical builds a store with rotations, deletes,
// a compaction, and a fingerprinted record, then asserts the index
// rebuilt from disk is exactly the index built online.
func TestIndexRebuildBitIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{SegmentBytes: 600})
	classes := []appclass.Class{appclass.CPU, appclass.IO, appclass.Net, appclass.Mem}
	for i := 0; i < 30; i++ {
		r := testRecord(fmt.Sprintf("vm-%d", i%3), classes[i%len(classes)], i)
		if i == 17 {
			r.Fingerprint = testFingerprint()
		}
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Prune(7); err != nil {
		t.Fatal(err)
	}
	before := snapshotIndex(s)
	s.Close()

	s2 := openTest(t, dir, Options{SegmentBytes: 600})
	after := snapshotIndex(s2)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("index rebuilt from disk differs from the online index:\nbefore: %+v\nafter:  %+v", before, after)
	}
}

// TestRetentionSurvivesReopen makes sure the floor-protected records
// and seq continuity hold across a crash-free close/open cycle after
// heavy churn.
func TestChurnAndReopenConsistency(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	now := time.Unix(50_000, 0)
	opt := Options{SegmentBytes: 700, MaxBytes: 4000, Now: func() time.Time { return now }}
	s := openTest(t, dir, opt)
	for i := 0; i < 100; i++ {
		r := testRecord(fmt.Sprintf("vm-%d", i%5), appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	beforeApps := s.Apps()
	beforeLen := s.Len()
	s.Close()
	s2 := openTest(t, dir, opt)
	if got := s2.Len(); got != beforeLen {
		t.Errorf("Len after churn+reopen = %d, want %d", got, beforeLen)
	}
	afterApps := s2.Apps()
	sort.Strings(afterApps)
	if !reflect.DeepEqual(beforeApps, afterApps) {
		t.Errorf("Apps changed across reopen: %v vs %v", beforeApps, afterApps)
	}
	st := s2.Stats()
	var onDisk int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if _, ok := segFormat.Parse(e.Name()); ok {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			onDisk += fi.Size()
		}
	}
	if st.Bytes != onDisk {
		t.Errorf("Stats.Bytes = %d, on-disk = %d", st.Bytes, onDisk)
	}
}

// TestCrashMidRetentionPrune simulates a crash inside retention's
// narrowest window: the victim segment's records were tombstoned (the
// sidecar hit disk), the segment file itself was deleted, and the
// process died before the post-compaction state rewrite. What's left
// on disk is a numbering gap plus tombstones pointing at sequence
// numbers that no longer exist anywhere. Open-time rebuild must
// converge — no error, no phantom records, truthful byte stats — and
// the store must keep taking appends across further reopens.
func TestCrashMidRetentionPrune(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{SegmentBytes: 600})
	const n = 12
	for i := 0; i < n; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RLock()
	victim := s.entries[0].seg
	for _, e := range s.entries {
		if e.seg < victim {
			victim = e.seg
		}
	}
	var victimSeqs []uint64
	for _, e := range s.entries {
		if e.seg == victim {
			victimSeqs = append(victimSeqs, e.seq)
		}
	}
	s.mu.RUnlock()
	if len(victimSeqs) == 0 || len(victimSeqs) >= n {
		t.Fatalf("oldest segment holds %d of %d records; need a proper subset", len(victimSeqs), n)
	}
	s.Close()

	doc, err := json.Marshal(tombstoneDoc{Dead: victimSeqs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tombstonesName), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segFormat.Path(dir, victim)); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{SegmentBytes: 600})
	want := n - len(victimSeqs)
	if got := s2.Len(); got != want {
		t.Fatalf("Len after mid-prune crash reopen = %d, want %d", got, want)
	}
	// The survivors are exactly the records that followed the victim
	// segment, in order, with nothing duplicated or resurrected.
	runs, err := s2.Runs("vm")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if wantSamples := 10 + len(victimSeqs) + i; r.Samples != wantSamples {
			t.Fatalf("survivor %d has Samples=%d, want %d", i, r.Samples, wantSamples)
		}
	}
	// Byte accounting reflects only the segments actually on disk — no
	// phantom contribution from the vanished victim.
	if st := s2.Stats(); st.Bytes != onDiskSegBytes(t, dir) {
		t.Errorf("Stats.Bytes = %d, on-disk segment bytes = %d", st.Bytes, onDiskSegBytes(t, dir))
	}

	// The store keeps working: append, reopen, still consistent, and
	// the stale tombstones never resurface.
	extra := testRecord("vm", appclass.CPU, 100)
	if err := s2.Append(&extra); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openTest(t, dir, Options{SegmentBytes: 600})
	if got := s3.Len(); got != want+1 {
		t.Errorf("Len after append+reopen = %d, want %d", got, want+1)
	}
	if st := s3.Stats(); st.Bytes != onDiskSegBytes(t, dir) {
		t.Errorf("Stats.Bytes after reopen = %d, on-disk = %d", st.Bytes, onDiskSegBytes(t, dir))
	}
}

// TestFsyncFailureCutsRecord fails the fsync of one append through the
// writer's file-open seam: the append errors, the next one is indexed
// at its true offset and reads back, and after reopen the failed record
// is gone rather than resurrected under a reused sequence number.
func TestFsyncFailureCutsRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{})
	for i := 0; i < 3; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	fs := faultinject.NewFS()
	s.mu.Lock()
	s.w.Open = fs.OpenSegmentFile
	err := s.w.Rotate(s.nextSegNoLocked()) // the next segment opens through the seam
	s.trackActiveLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	fs.FailSyncs(syscall.EIO)
	failed := testRecord("vm", appclass.CPU, 3)
	if err := s.Append(&failed); err == nil {
		t.Fatal("append with a failing fsync succeeded")
	}
	fs.FailSyncs(nil)
	for i := 4; i < 6; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatalf("append %d after the fault healed: %v", i, err)
		}
	}
	want := []int{10, 11, 12, 14, 15} // Samples of every acknowledged record
	check := func(s *Store, when string) {
		t.Helper()
		runs, err := s.Runs("vm")
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		var got []int
		for _, r := range runs {
			got = append(got, r.Samples)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: records %v, want %v", when, got, want)
		}
	}
	check(s, "before reopen")
	s.Close()
	check(openTest(t, dir, Options{}), "after reopen")
}

// TestOpenStepsOverBadFrame: one flipped payload byte in a closed
// segment costs that record alone. Open steps over the bad frame and
// indexes every record behind it, so a later scrub carries them
// forward instead of dropping them with the frame.
func TestOpenStepsOverBadFrame(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	opt := Options{SegmentBytes: 1200}
	s := openTest(t, dir, opt)
	const n = 30
	for i := 0; i < n; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	// The second record of the first segment, a closed one.
	s.mu.RLock()
	first, inFirst := s.entries[0].seg, 0
	for _, e := range s.entries {
		if e.seg == first {
			inFirst++
		}
	}
	active := s.w.Seq()
	s.mu.RUnlock()
	if inFirst < 4 || first == active {
		t.Fatalf("first segment %d holds %d record(s) (active %d), want a closed one with at least 4", first, inFirst, active)
	}
	corruptLiveFrame(t, s, 2)
	s.Close()

	check := func(s *Store, when string) {
		t.Helper()
		if got := s.Len(); got != n-1 {
			t.Errorf("%s: %d records, want %d", when, got, n-1)
		}
		runs, err := s.Runs("vm")
		if err != nil {
			t.Fatalf("%s: runs: %v", when, err)
		}
		for _, r := range runs {
			if r.Samples == 10+1 {
				t.Errorf("%s: the damaged record is still served", when)
			}
		}
	}
	s2 := openTest(t, dir, opt)
	check(s2, "reopen")
	if st := s2.Stats(); st.CorruptFrames != 1 {
		t.Errorf("reopen: CorruptFrames = %d, want 1", st.CorruptFrames)
	}
	reps, err := s2.Scrub(100)
	if err != nil {
		t.Fatal(err)
	}
	if dmg := damaged(reps); len(dmg) != 1 || !dmg[0].Repaired || dmg[0].Seq != first {
		t.Errorf("scrub reports %+v, want segment %d repaired", dmg, first)
	}
	check(s2, "scrub")
	s2.Close()
	s3 := openTest(t, dir, opt)
	check(s3, "reopen after scrub")
	if st := s3.Stats(); st.CorruptFrames != 0 {
		t.Errorf("reopen after scrub: CorruptFrames = %d, want 0", st.CorruptFrames)
	}
}

// TestTornTailCutAfterCompaction: compaction output takes a segment
// number above the active segment's, so a crash's torn tail is not
// always in the highest-numbered segment. Open cuts it wherever it is,
// and the next open finds nothing wrong.
func TestTornTailCutAfterCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	opt := Options{SegmentBytes: 600}
	s := openTest(t, dir, opt)
	for i := 0; i < 12; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Prune(8); err != nil {
		t.Fatal(err)
	}
	r := testRecord("vm", appclass.CPU, 12)
	if err := s.Append(&r); err != nil {
		t.Fatal(err)
	}
	want := s.Len()
	s.mu.RLock()
	active := s.w.Seq()
	newest := s.nextSegNoLocked() - 1
	s.mu.RUnlock()
	s.Close()
	if newest <= active {
		t.Fatalf("newest segment %d, active %d: want compaction output above the active segment", newest, active)
	}
	path := segFormat.Path(dir, active)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x13, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTest(t, dir, opt)
	if got, st := s2.Len(), s2.Stats(); got != want || st.CorruptFrames != 1 {
		t.Errorf("reopen: %d records, CorruptFrames %d; want %d and 1", got, st.CorruptFrames, want)
	}
	if after, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if after.Size() != fi.Size() {
		t.Errorf("active segment %d is %d bytes after reopen, want it cut back to %d", active, after.Size(), fi.Size())
	}
	s2.Close()
	s3 := openTest(t, dir, opt)
	if got, st := s3.Len(), s3.Stats(); got != want || st.CorruptFrames != 0 {
		t.Errorf("second reopen: %d records, CorruptFrames %d; want %d and no damage", got, st.CorruptFrames, want)
	}
}
