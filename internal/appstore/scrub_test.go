package appstore

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/appclass"

	"repro/internal/seglog"
)

// corruptLiveFrame flips a payload byte of the live record with the
// given seq inside its (closed) segment, returning the segment number.
func corruptLiveFrame(t *testing.T, s *Store, seq uint64) uint64 {
	t.Helper()
	s.mu.RLock()
	i := s.findSeqLocked(seq)
	if i < 0 {
		s.mu.RUnlock()
		t.Fatalf("no entry with seq %d", seq)
	}
	e := s.entries[i]
	s.mu.RUnlock()
	path := segFormat.Path(s.dir, e.seg)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[e.off+seglog.FrameSize+2] ^= 0x20
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return e.seg
}

// damaged keeps the reports that found damage.
func damaged(reps []seglog.Report) []seglog.Report {
	return slices.DeleteFunc(reps, func(r seglog.Report) bool { return !r.Damaged() })
}

func TestScrubRepairsDamagedSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 600})
	n := 12
	for i := 0; i < n; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.Segments < 3 {
		t.Fatalf("want several segments, got %d", before.Segments)
	}

	// Damage one live record in a closed segment.
	victim := corruptLiveFrame(t, s, 3)

	// A full-cycle scrub finds it, quarantines the segment, and carries
	// the survivors forward.
	reps, err := s.Scrub(100)
	if err != nil {
		t.Fatal(err)
	}
	dmg := damaged(reps)
	if len(dmg) != 1 {
		t.Fatalf("damaged = %+v, want one report", dmg)
	}
	rep := dmg[0]
	if rep.Seq != victim || len(rep.Bad) != 1 || rep.Lost != 1 || !rep.Repaired {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := os.Stat(segFormat.Path(dir, victim) + ".corrupt"); err != nil {
		t.Errorf("quarantine missing: %v", err)
	}
	if _, err := os.Stat(segFormat.Path(dir, victim)); !os.IsNotExist(err) {
		t.Errorf("victim segment still present: %v", err)
	}

	// Exactly one record lost; the rest readable.
	if got := s.Len(); got != n-1 {
		t.Errorf("live records = %d, want %d", got, n-1)
	}
	if _, err := s.Get(3); err == nil {
		t.Error("damaged record still served")
	}
	recs, err := s.Runs("vm")
	if err != nil {
		t.Fatalf("runs after repair: %v", err)
	}
	if len(recs) != n-1 {
		t.Errorf("runs = %d, want %d", len(recs), n-1)
	}
	st := s.Stats()
	if st.ScrubRepairedSegments != 1 || st.ScrubLostRecords != 1 || st.ScrubQuarantined != 1 {
		t.Errorf("scrub stats = %+v", st)
	}

	// A clean follow-up pass finds nothing.
	reps, err = s.Scrub(100)
	if err != nil {
		t.Fatal(err)
	}
	if dmg := damaged(reps); len(dmg) != 0 {
		t.Errorf("second pass found damage: %+v", dmg)
	}

	// The store survives close + reopen with truthful stats: quarantined
	// bytes no longer count, survivors all load.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{SegmentBytes: 600})
	if got := s2.Len(); got != n-1 {
		t.Errorf("live records after reopen = %d, want %d", got, n-1)
	}
	if _, err := s2.Runs("vm"); err != nil {
		t.Errorf("runs after reopen: %v", err)
	}
}

func TestScrubSkipsActiveSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 1 << 20})
	r := testRecord("vm", appclass.CPU, 0)
	if err := s.Append(&r); err != nil {
		t.Fatal(err)
	}
	// Only the active segment exists; scrub must not touch it.
	reps, err := s.Scrub(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 0 {
		t.Errorf("scrub touched the active segment: %+v", reps)
	}
}

func TestScrubCursorCycles(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 600})
	for i := 0; i < 12; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	closed := s.Stats().Segments - 1
	if closed < 2 {
		t.Fatalf("want at least two closed segments, got %d", closed)
	}
	// One-at-a-time passes cover every closed segment and wrap.
	for pass := 0; pass < closed+2; pass++ {
		if _, err := s.Scrub(1); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.ScrubScans != int64(closed+2) {
		t.Errorf("scans = %d, want %d", st.ScrubScans, closed+2)
	}
}

func TestScrubDamagedDeadFrameQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 600, PruneFloor: -1})
	for i := 0; i < 12; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstone a record, then damage its frame: no live loss, but the
	// rot is still quarantined.
	s.mu.Lock()
	i := s.findSeqLocked(2)
	if i < 0 || s.entries[i].seg == s.w.Seq() {
		s.mu.Unlock()
		t.Fatal("seq 2 not in a closed segment")
	}
	s.markDeadLocked(&s.entries[i])
	s.mu.Unlock()
	victim := corruptLiveFrame(t, s, 2) // seq 2 is dead but still indexed

	reps, err := s.Scrub(100)
	if err != nil {
		t.Fatal(err)
	}
	dmg := damaged(reps)
	if len(dmg) != 1 {
		t.Fatalf("damaged = %+v", dmg)
	}
	rep := dmg[0]
	if rep.Seq != victim || rep.Lost != 0 || !rep.Repaired {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.HasSuffix(rep.Quarantined, ".corrupt") {
		t.Errorf("quarantined = %q", rep.Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, filepath.Base(rep.Quarantined))); err != nil {
		t.Errorf("quarantine missing: %v", err)
	}
}
