package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/seglog"
)

// buildJournal writes a small single-segment journal and returns its
// directory, the segment path, and the end offset of every record (in
// order), so tests can reason about which truncation points keep which
// records.
func buildJournal(t *testing.T, records int) (dir, segPath string, ends []int64) {
	t.Helper()
	dir = t.TempDir()
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		pos, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, pos.Off)
	}
	segPath = segFormat.Path(dir, j.Pos().Seg)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, segPath, ends
}

// TestTornWriteReplayStopsCleanly truncates a journal segment at every
// byte offset and asserts replay never panics, never errors, and
// always delivers exactly the records that fit wholly before the cut —
// the crash-mid-write contract.
func TestTornWriteReplayStopsCleanly(t *testing.T) {
	_, segPath, ends := buildJournal(t, 6)
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		dir := t.TempDir()
		torn := filepath.Join(dir, filepath.Base(segPath))
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecords := 0
		for _, end := range ends {
			if end <= cut {
				wantRecords++
			}
		}
		got := 0
		stats, err := Replay(dir, Position{}, func(pos Position, rec Record) error {
			got++
			if rec.VM != "vm" || len(rec.Snaps) != 2 {
				t.Fatalf("cut %d: corrupt record surfaced: %+v", cut, rec)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: replay error: %v", cut, err)
		}
		if got != wantRecords {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, got, wantRecords)
		}
		// A cut is clean only when it lands exactly on a record (or
		// header) boundary; everywhere else the tail is torn.
		wantTorn := cut != headerSize
		for _, end := range ends {
			if cut == end {
				wantTorn = false
			}
		}
		if stats.Truncated != wantTorn {
			t.Fatalf("cut %d: truncated = %v, want %v (stats %+v)", cut, stats.Truncated, wantTorn, stats)
		}
	}
}

// TestCorruptPayloadDetected flips one payload byte mid-segment; the
// CRC must catch it, and replay must step over the damaged record only,
// with nothing to cut: intact frames follow it.
func TestCorruptPayloadDetected(t *testing.T) {
	_, segPath, ends := buildJournal(t, 5)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the third record's payload (past its frame).
	data[ends[1]+seglog.FrameSize+4] ^= 0xFF
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []Position
	stats, err := Replay(filepath.Dir(segPath), Position{}, func(pos Position, _ Record) error {
		got = append(got, pos)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || stats.CorruptFrames != 1 || stats.Truncated {
		t.Errorf("replayed %d records (stats %+v), want 4, one corrupt frame and no cut", len(got), stats)
	}
	for i, pos := range got {
		if want := ends[i+i/2]; pos.Off != want {
			t.Errorf("record %d at %+v, want offset %d", i, pos, want)
		}
	}
}

// TestTruncateAtCorruption repairs a torn segment in place so later
// scans are clean.
func TestTruncateAtCorruption(t *testing.T) {
	dir, segPath, ends := buildJournal(t, 4)
	// Tear the last record in half.
	cut := ends[2] + (ends[3]-ends[2])/2
	if err := os.Truncate(segPath, cut); err != nil {
		t.Fatal(err)
	}

	infos, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Torn || infos[0].End != ends[2] {
		t.Fatalf("verify = %+v, want one torn segment valid to %d", infos, ends[2])
	}

	fixed, err := TruncateAtCorruption(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 1 {
		t.Fatalf("fixed %d segments, want 1", len(fixed))
	}
	st, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != ends[2] {
		t.Errorf("truncated size = %d, want %d", st.Size(), ends[2])
	}
	infos, err = VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].Torn || infos[0].Frames != 3 {
		t.Errorf("post-repair verify = %+v, want clean with 3 records", infos[0])
	}
	// Repair is idempotent.
	fixed, err = TruncateAtCorruption(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 0 {
		t.Errorf("second repair fixed %d segments, want 0", len(fixed))
	}
}

// TestReplayReportsMissingSegments deletes a mid-stream segment file:
// replay must deliver what remains but flag the hole instead of
// pretending the stream is contiguous.
func TestReplayReportsMissingSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1}) // rotate after every record
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segFormat.Path(dir, 2)); err != nil {
		t.Fatal(err)
	}
	got := 0
	stats, err := Replay(dir, Position{}, func(Position, Record) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("replayed %d records, want 3 (one lost with the deleted segment)", got)
	}
	if len(stats.MissingSegments) != 1 || stats.MissingSegments[0] != 2 {
		t.Errorf("MissingSegments = %v, want [2]", stats.MissingSegments)
	}
	// A checkpointed start that points at a deleted segment is a gap too.
	stats, err = Replay(dir, Position{Seg: 2}, func(Position, Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.MissingSegments) != 1 || stats.MissingSegments[0] != 2 {
		t.Errorf("MissingSegments from checkpointed start = %v, want [2]", stats.MissingSegments)
	}
	// Segments pruned *before* the start position are not gaps.
	stats, err = Replay(dir, Position{Seg: 3}, func(Position, Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.MissingSegments) != 0 {
		t.Errorf("MissingSegments past the hole = %v, want none", stats.MissingSegments)
	}
}

// TestHeaderlessSegmentRemoved exercises the bad-header path: a
// segment whose header never made it to disk is dropped entirely.
func TestHeaderlessSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	path := segFormat.Path(dir, 1)
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(dir, Position{}, func(Position, Record) error {
		t.Error("record from headerless segment")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated {
		t.Errorf("stats = %+v, want truncated", stats)
	}
	if _, err := TruncateAtCorruption(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("headerless segment still on disk (err %v)", err)
	}
}
