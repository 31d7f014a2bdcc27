package wal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/seglog"
)

// flipPayloadByte corrupts one byte inside the payload of the record
// ending at ends[rec] in the segment at path, returning the frame's
// start offset.
func flipPayloadByte(t *testing.T, path string, ends []int64, rec int) int64 {
	t.Helper()
	start := int64(headerSize)
	if rec > 0 {
		start = ends[rec-1]
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[start+seglog.FrameSize+1] ^= 0x40 // a payload byte, leaving the frame header intact
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return start
}

// damaged keeps the reports that found damage.
func damaged(reps []seglog.Report) []seglog.Report {
	return slices.DeleteFunc(reps, func(r seglog.Report) bool { return !r.Damaged() })
}

func TestScrubDirRepairsBadFrame(t *testing.T) {
	dir, segPath, ends := buildJournal(t, 6)
	badOff := flipPayloadByte(t, segPath, ends, 2)

	// Report-only first: damage found, nothing touched.
	reports, err := ScrubDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || len(reports[0].Bad) != 1 || reports[0].Frames != 5 {
		t.Fatalf("report = %+v, want 1 bad frame, 5 records", reports)
	}
	if reports[0].Bad[0] != badOff {
		t.Errorf("first bad offset = %d, want %d", reports[0].Bad[0], badOff)
	}
	if reports[0].Repaired {
		t.Error("report-only scrub repaired the segment")
	}

	// Repairing scrub: bad frame dropped, original quarantined.
	reports, err = ScrubDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Repaired {
		t.Fatalf("segment not repaired: %+v", reports[0])
	}
	if _, err := os.Stat(segPath + ".corrupt"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	got := 0
	stats, err := Replay(dir, Position{}, func(pos Position, rec Record) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated {
		t.Errorf("repaired segment still scans torn: %+v", stats)
	}
	if got != 5 {
		t.Errorf("replayed %d records after repair, want 5", got)
	}

	// A clean follow-up scrub finds nothing.
	reports, err = ScrubDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Damaged() {
		t.Errorf("repaired segment still reports damage: %+v", reports[0])
	}
}

func TestScrubDirLeavesTornTail(t *testing.T) {
	dir, segPath, ends := buildJournal(t, 3)
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, full[:ends[2]-3], 0o644); err != nil {
		t.Fatal(err)
	}
	reports, err := ScrubDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Torn || reports[0].Repaired {
		t.Fatalf("torn tail handled wrong: %+v", reports[0])
	}
	if reports[0].Frames != 2 {
		t.Errorf("records = %d, want 2", reports[0].Frames)
	}
}

func TestScrubDirRespectsCheckpoint(t *testing.T) {
	dir, segPath, ends := buildJournal(t, 6)
	seq, _ := segFormat.Parse(filepath.Base(segPath))
	// Checkpoint covering the first four records; damage before its
	// offset must not be repaired (replay-from-checkpoint would land
	// mid-record after the shift).
	if _, err := SaveCheckpoint(dir, Position{Seg: seq, Off: ends[3]}, time.Now(), "", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	flipPayloadByte(t, segPath, ends, 1)
	reports, err := ScrubDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Repaired || !strings.Contains(reports[0].SkipReason, "checkpoint") {
		t.Fatalf("repair not skipped for checkpointed region: %+v", reports[0])
	}
	// Damage past the checkpoint offset is repairable.
	dir2, segPath2, ends2 := buildJournal(t, 6)
	seq2, _ := segFormat.Parse(filepath.Base(segPath2))
	if _, err := SaveCheckpoint(dir2, Position{Seg: seq2, Off: ends2[1]}, time.Now(), "", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	flipPayloadByte(t, segPath2, ends2, 4)
	reports, err = ScrubDir(dir2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Repaired {
		t.Fatalf("repair skipped for post-checkpoint damage: %+v", reports[0])
	}
}

func TestJournalScrubRepairsSealedSegment(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1}) // rotate after every record
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 4; i++ {
		if _, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sealedSeq := uint64(2)
	path := segFormat.Path(dir, sealedSeq)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+seglog.FrameSize+1] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// Without a PreRepair hook, un-checkpointed damage is only reported.
	reps, err := j.Scrub(ScrubConfig{MaxSegments: 10})
	if err != nil {
		t.Fatal(err)
	}
	if dmg := damaged(reps); len(dmg) != 1 || dmg[0].Repaired {
		t.Fatalf("un-checkpointed damage was repaired: %+v", dmg)
	}

	// With the hook (the server's checkpoint-first contract), repair runs.
	var hookSeq uint64
	var hookUnchk bool
	reps, err = j.Scrub(ScrubConfig{MaxSegments: 10, PreRepair: func(seq uint64, unchk bool) error {
		hookSeq, hookUnchk = seq, unchk
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if dmg := damaged(reps); len(dmg) != 1 || !dmg[0].Repaired {
		t.Fatalf("damage not repaired: %+v", dmg)
	}
	if hookSeq != sealedSeq || !hookUnchk {
		t.Errorf("hook saw seq %d unchk %v, want %d true", hookSeq, hookUnchk, sealedSeq)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("quarantine missing: %v", err)
	}
	st := j.Stats()
	if st.ScrubRepairedSegments != 1 || st.ScrubLostRecords != 1 || st.ScrubQuarantined != 1 {
		t.Errorf("scrub stats = %+v", st)
	}
	if st.ScrubScans == 0 {
		t.Error("no scans counted")
	}

	// The journal stays usable and the damaged record is the only loss.
	if _, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, 9)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := 0
	stats, err := Replay(dir, Position{}, func(pos Position, rec Record) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated || len(stats.MissingSegments) != 0 {
		t.Errorf("replay after repair: %+v", stats)
	}
	if got != 4 { // 5 appended, 1 lost to the flipped frame
		t.Errorf("replayed %d records, want 4", got)
	}
}

func TestJournalScrubCursorCycles(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		if _, err := j.AppendBatch("vm", testSnaps("vm", 1, 2, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// 5 sealed segments; one-at-a-time passes must cover all of them
	// and wrap.
	for pass := 0; pass < 7; pass++ {
		if _, err := j.Scrub(ScrubConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.ScrubScans != 7 {
		t.Errorf("scans = %d, want 7", st.ScrubScans)
	}
}

// TestScrubKeepsFallbackCheckpointOffsets: a repair must not shift an
// offset either kept checkpoint replays from. Checkpoint A points into
// segment 1 after 3 records, and checkpoint B, the newest, into segment
// 2; segment 1's first record is damaged. Repairing segment 1 would
// move A's offset, and a recovery falling back to A would then skip a
// record without a tear, so both scrubs skip the repair until a newer
// checkpoint has replaced A.
func TestScrubKeepsFallbackCheckpointOffsets(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN := func(j *Journal, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkpoint := func(j *Journal) Position {
		t.Helper()
		pos := j.Pos()
		if _, err := SaveCheckpoint(dir, pos, time.Now(), "", json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
		j.SetRetainFloor(pos.Seg)
		return pos
	}
	appendN(j, 3)
	a := checkpoint(j)
	appendN(j, 3)
	if err := j.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(j, 2)
	b := checkpoint(j)
	if a.Seg != 1 || b.Seg != 2 {
		t.Fatalf("checkpoints at %+v and %+v, want segments 1 and 2", a, b)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg1 := segFormat.Path(dir, 1)
	flipPayloadByte(t, seg1, nil, 0)

	replayFromA := func() {
		t.Helper()
		got := 0
		st, err := Replay(dir, a, func(Position, Record) error { got++; return nil })
		if err != nil || st.Truncated || got != 5 {
			t.Fatalf("replay from checkpoint A delivered %d records (stats %+v, err %v), want 5", got, st, err)
		}
	}
	skipped := func(reps []seglog.Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		dmg := damaged(reps)
		if len(dmg) != 1 || dmg[0].Seq != 1 || dmg[0].Repaired || !strings.Contains(dmg[0].SkipReason, "checkpoint 1 replays") {
			t.Fatalf("damage in segment 1 = %+v, want its repair skipped for checkpoint 1", dmg)
		}
	}

	skipped(ScrubDir(dir, true))
	replayFromA()

	j, err = Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var hooked []bool
	scrub := func() ([]seglog.Report, error) {
		return j.Scrub(ScrubConfig{MaxSegments: 10, PreRepair: func(_ uint64, unchk bool) error {
			hooked = append(hooked, unchk)
			return nil
		}})
	}
	skipped(scrub())
	if len(hooked) != 1 || hooked[0] {
		t.Errorf("PreRepair saw un-checkpointed %v, want one call with false: segment 1 is below B's", hooked)
	}
	replayFromA()
	if _, err := os.Stat(seg1 + ".corrupt"); !os.IsNotExist(err) {
		t.Errorf("skipped repair left a quarantine file (stat err %v)", err)
	}

	// A newer checkpoint replaces A, and retention then trims segment 1,
	// which no kept checkpoint replays from: the damage goes with it,
	// and B still replays what followed it.
	appendN(j, 1)
	checkpoint(j)
	if _, err := os.Stat(seg1); !os.IsNotExist(err) {
		t.Errorf("segment 1 outlived the checkpoint that replayed from it (stat err %v)", err)
	}
	if reps, err := scrub(); err != nil || len(damaged(reps)) != 0 {
		t.Errorf("scrub after segment 1 was trimmed = %+v (err %v), want no damage", reps, err)
	}
	got := 0
	if st, err := Replay(dir, b, func(Position, Record) error { got++; return nil }); err != nil || st.Truncated || got != 1 {
		t.Errorf("replay from checkpoint B delivered %d records (stats %+v, err %v), want 1", got, st, err)
	}
}
