package appstore

import (
	"errors"
	"fmt"
	"io/fs"
	"slices"

	"repro/internal/seglog"
)

// Scrubbing re-verifies closed segments frame-by-frame so latent
// corruption is found on the scrubber's schedule instead of at the
// read that needed the record. A damaged segment is repaired with the
// compaction machinery run against a single victim: surviving live
// records are copied forward into a fresh segment, and the damaged
// original is renamed to <segment>.corrupt — the same quarantine idiom
// load() applies to unreadable headers — instead of deleted, so the
// rotten bytes stay available for inspection. The walk steps over a
// frame whose CRC fails; one whose length field is unwalkable ends it,
// so only that frame is known bad and the records after it are carried
// forward unverified, to be checked when the new segment is scrubbed. Only the records inside
// damaged frames are lost; everything else survives the repair. A
// crash anywhere mid-repair is safe for the same reason compaction is:
// before the rename the fresh segment is an invisible .tmp, after it
// duplicated sequence numbers are resolved at open.

// Scrub examines up to maxSegments closed segments (0 means 1),
// verifying every frame against its checksum, repairs any damage it
// finds, and returns a report per segment examined. A cursor persists
// across calls so successive low-rate passes cycle the whole store. The
// verification reads run off the store locks — closed segments are
// immutable — and only the repair itself takes the write lock.
func (s *Store) Scrub(maxSegments int) ([]seglog.Report, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("appstore: store is closed")
	}
	var nos []uint64
	for no := range s.segs {
		if no != s.w.Seq() {
			nos = append(nos, no)
		}
	}
	slices.Sort(nos)
	picks, next := seglog.Pick(nos, s.scrubNext, maxSegments)
	s.scrubNext = next
	s.stats.ScrubScans += int64(len(picks))
	s.mu.Unlock()
	return seglog.ScrubEach(picks, s.scrubSegment)
}

// scrubSegment verifies one closed segment and, when damaged, rewrites
// it without the damage — compaction's copy-forward against a single
// victim, with the victim quarantined rather than deleted. Lost counts
// the live records in bad frames.
func (s *Store) scrubSegment(no uint64) (seglog.Report, error) {
	sc, err := segFormat.Walk(segFormat.Path(s.dir, no), 0, true, nil)
	if errors.Is(err, fs.ErrNotExist) {
		return seglog.Report{Seq: no}, nil // compacted away between snapshot and read
	}
	rep := seglog.Report{Seq: no, Scan: sc}
	if err != nil {
		return rep, fmt.Errorf("appstore: scrub segment %d: %w", no, err)
	}
	if !rep.Damaged() {
		return rep, nil
	}
	// The frame a torn walk ended on is bad too.
	bad := sc.Bad
	if sc.Torn {
		bad = append(bad, sc.End)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segs[no] == nil || no == s.w.Seq() {
		return seglog.Report{Seq: no}, nil // compacted away while we scanned
	}
	// Damaged live records are unreadable; tombstone them so the copy
	// skips them and readers stop being offered them.
	for i := range s.entries {
		if e := &s.entries[i]; e.seg == no && !e.dead && slices.Contains(bad, e.off) {
			s.markDeadLocked(e)
			rep.Lost++
		}
	}
	s.opt.Logf("appstore: scrub found %d bad frame(s) in segment %d (%d live record(s) lost)", len(bad), no, rep.Lost)
	copies, removed, err := s.rewriteLocked(map[uint64]bool{no: true}, true)
	if err != nil {
		rep.SkipReason = fmt.Sprintf("repair failed: %v", err)
		return rep, err
	}
	s.stats.DroppedRecords += int64(removed)
	s.stats.ScrubRepairedSegments++
	s.stats.ScrubLostRecords += int64(rep.Lost)
	s.stats.ScrubQuarantined++
	rep.Repaired = true
	rep.Quarantined = segFormat.Path(s.dir, no) + ".corrupt"
	s.opt.Logf("appstore: scrub repaired segment %d: quarantined original, carried %d live record(s), lost %d to damage",
		no, copies, rep.Lost)
	return rep, s.persistTombstonesLocked()
}
