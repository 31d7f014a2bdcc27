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

// ScrubReport describes one damaged segment found by Scrub.
type ScrubReport struct {
	// Seg is the segment number.
	Seg uint64 `json:"seg"`
	// BadFrames counts frames whose bytes no longer match their CRC.
	BadFrames int `json:"bad_frames"`
	// LostRecords counts live records inside those frames — the
	// records the repair could not save.
	LostRecords int `json:"lost_records"`
	// Repaired reports that the segment was rewritten without the
	// damage.
	Repaired bool `json:"repaired,omitempty"`
	// SkipReason says why a damaged segment was left alone.
	SkipReason string `json:"skip_reason,omitempty"`
	// Quarantined is the path the damaged original was preserved at.
	Quarantined string `json:"quarantined,omitempty"`
}

// ScrubSummary aggregates one Scrub call.
type ScrubSummary struct {
	// Scanned is how many segments were examined.
	Scanned int
	// Damaged holds a report per damaged segment.
	Damaged []ScrubReport
}

// Scrub examines up to maxSegments closed segments (0 means 1),
// verifying every indexed frame against its checksum, and repairs any
// damage it finds. A cursor persists across calls so successive
// low-rate passes cycle the whole store. The verification reads run
// off the store locks — closed segments are immutable — and only the
// repair itself takes the write lock.
func (s *Store) Scrub(maxSegments int) (ScrubSummary, error) {
	var sum ScrubSummary
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return sum, fmt.Errorf("appstore: store is closed")
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
	sum.Scanned = len(picks)
	var firstErr error
	for _, no := range picks {
		rep, err := s.scrubSegment(no)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if rep != nil {
			sum.Damaged = append(sum.Damaged, *rep)
		}
	}
	return sum, firstErr
}

// scrubSegment verifies one closed segment and repairs it when
// damaged, returning a report only when damage was found.
func (s *Store) scrubSegment(no uint64) (*ScrubReport, error) {
	sc, err := segFormat.Walk(segFormat.Path(s.dir, no), 0, true, nil)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil // compacted away between snapshot and read
		}
		return nil, fmt.Errorf("appstore: scrub segment %d: %w", no, err)
	}
	bad := make(map[int64]bool, len(sc.Bad)+1)
	for _, off := range sc.Bad {
		bad[off] = true
	}
	if sc.Torn {
		bad[sc.End] = true
	}
	badSeqs := make(map[uint64]bool)
	rep := &ScrubReport{Seg: no}
	s.mu.RLock()
	for i := range s.entries {
		if e := &s.entries[i]; e.seg == no && bad[e.off] {
			badSeqs[e.seq] = true
			rep.BadFrames++
			if !e.dead {
				rep.LostRecords++
			}
		}
	}
	s.mu.RUnlock()
	if rep.BadFrames == 0 {
		return nil, nil
	}
	s.opt.Logf("appstore: scrub found %d bad frame(s) in segment %d (%d live record(s) lost)",
		rep.BadFrames, no, rep.LostRecords)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.repairScrubLocked(no, badSeqs, rep); err != nil {
		rep.SkipReason = fmt.Sprintf("repair failed: %v", err)
		return rep, err
	}
	return rep, nil
}

// repairScrubLocked rewrites segment no without its damaged frames —
// compaction's copy-forward against a single victim, with the victim
// quarantined rather than deleted. Caller holds the write lock.
func (s *Store) repairScrubLocked(no uint64, badSeqs map[uint64]bool, rep *ScrubReport) error {
	if s.segs[no] == nil || no == s.w.Seq() {
		rep.SkipReason = "segment vanished before repair"
		return nil
	}
	// Damaged live records are unreadable; tombstone them so the copy
	// skips them and readers stop being offered them.
	for i := range s.entries {
		e := &s.entries[i]
		if e.seg == no && badSeqs[e.seq] && !e.dead {
			s.markDeadLocked(e)
		}
	}
	copies, removed, err := s.rewriteLocked(map[uint64]bool{no: true}, true)
	if err != nil {
		return err
	}
	s.stats.DroppedRecords += int64(removed)
	s.stats.ScrubRepairedSegments++
	s.stats.ScrubLostRecords += int64(rep.LostRecords)
	s.stats.ScrubQuarantined++
	rep.Repaired = true
	rep.Quarantined = segFormat.Path(s.dir, no) + ".corrupt"
	s.opt.Logf("appstore: scrub repaired segment %d: quarantined original, carried %d live record(s), lost %d to damage",
		no, copies, rep.LostRecords)
	return s.persistTombstonesLocked()
}
