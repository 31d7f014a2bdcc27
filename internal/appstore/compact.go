package appstore

import (
	"fmt"
	"io"
	"os"

	"repro/internal/seglog"
)

// Prune keeps at most keep most-recent records per application,
// returning the number of records dropped — the same contract as the
// in-memory engine. An explicit Prune is an operator decision, so the
// retention floor does not apply. A keep of zero or less removes
// nothing.
func (s *Store) Prune(keep int) (int, error) {
	if keep <= 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("appstore: store is closed")
	}
	dropped := 0
	for _, idxs := range s.byApp {
		live := 0
		for _, i := range idxs {
			if !s.entries[i].dead {
				live++
			}
		}
		excess := live - keep
		for _, i := range idxs {
			if excess <= 0 {
				break
			}
			if e := &s.entries[i]; !e.dead {
				s.markDeadLocked(e)
				dropped++
				excess--
			}
		}
	}
	if dropped == 0 {
		return 0, nil
	}
	s.stats.PrunedRecords += int64(dropped)
	if err := s.persistTombstonesLocked(); err != nil {
		return dropped, err
	}
	return dropped, s.compactLocked()
}

func (s *Store) markDeadLocked(e *entry) {
	e.dead = true
	s.segs[e.seg].live--
	s.segs[e.seg].dead++
}

// maybeRetainLocked applies the retention policy — expire by age, then
// cap total bytes — marking victims dead and compacting. The pruning
// floor protects every application's newest records and its newest
// fingerprinted record (the dictionary entry), so the fingerprint
// dictionary and the per-application retraining reservoirs never lose
// records still referenced. Called on segment rotation; errors are
// logged, not returned, because retention must never fail an append.
func (s *Store) maybeRetainLocked() {
	if s.opt.RetainAge <= 0 && s.opt.MaxBytes <= 0 {
		return
	}
	floor := s.opt.PruneFloor
	if floor < 0 {
		floor = 0
	}
	protected := make(map[int]bool)
	for _, idxs := range s.byApp {
		kept := 0
		fpSeen := false
		for i := len(idxs) - 1; i >= 0; i-- {
			e := &s.entries[idxs[i]]
			if e.dead {
				continue
			}
			if kept < floor {
				protected[idxs[i]] = true
				kept++
			}
			if !fpSeen && e.hasFP {
				protected[idxs[i]] = true
				fpSeen = true
			}
		}
	}
	marked := 0
	if s.opt.RetainAge > 0 {
		cutoff := s.opt.Now().Add(-s.opt.RetainAge).UnixNano()
		for i := range s.entries {
			e := &s.entries[i]
			// Records without a finalize stamp have unknown age; keep them.
			if !e.dead && !protected[i] && e.at > 0 && e.at < cutoff {
				s.markDeadLocked(e)
				marked++
			}
		}
	}
	if s.opt.MaxBytes > 0 {
		var total, deadBytes int64
		for _, info := range s.segs {
			total += info.size
		}
		for i := range s.entries {
			if s.entries[i].dead {
				deadBytes += s.entries[i].n
			}
		}
		// Oldest-first until the live remainder fits the cap.
		for i := range s.entries {
			if total-deadBytes <= s.opt.MaxBytes {
				break
			}
			e := &s.entries[i]
			if e.dead || protected[i] {
				continue
			}
			s.markDeadLocked(e)
			deadBytes += e.n
			marked++
		}
	}
	if marked == 0 {
		return
	}
	s.stats.PrunedRecords += int64(marked)
	s.opt.Logf("appstore: retention marked %d record(s) for removal", marked)
	if err := s.persistTombstonesLocked(); err != nil {
		s.opt.Logf("appstore: persist tombstones: %v", err)
		return
	}
	if err := s.compactLocked(); err != nil {
		s.opt.Logf("appstore: compaction: %v", err)
	}
}

// Compact rewrites closed segments that carry dead records, physically
// dropping them.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("appstore: store is closed")
	}
	return s.compactLocked()
}

// compactLocked rewrites every closed segment that carries dead
// records without them.
func (s *Store) compactLocked() error {
	victims := make(map[uint64]bool)
	for no, info := range s.segs {
		if no != s.w.Seq() && info.dead > 0 {
			victims[no] = true
		}
	}
	if len(victims) == 0 {
		return nil
	}
	copies, removed, err := s.rewriteLocked(victims, false)
	if err != nil {
		return err
	}
	s.stats.Compactions++
	s.stats.DroppedRecords += int64(removed)
	s.opt.Logf("appstore: compacted %d segment(s): dropped %d dead record(s), carried %d live", len(victims), removed, copies)
	return s.persistTombstonesLocked()
}

// rewriteLocked copies the live records of the victim segments into one
// fresh segment (raw frame bytes — payloads are immutable, so no
// re-encode), publishes it with seglog.WriteFile, then deletes the
// victims — or, with quarantine set, moves them aside as .corrupt — and
// repoints the index, returning how many records it carried and
// dropped. Crash anywhere in between is safe: before the rename the
// temp file is invisible (and swept at open); after it, records
// existing in both the new segment and an undeleted victim are
// deduplicated by sequence number at open.
func (s *Store) rewriteLocked(victims map[uint64]bool, quarantine bool) (copies, removed int, err error) {
	for no := range victims {
		copies += s.segs[no].live
	}
	var newSeg uint64
	newOff := make(map[uint64]int64) // seq -> offset in the new segment
	if copies > 0 {
		newSeg = s.nextSegNoLocked()
		hdr := segFormat.EncodeHeader(segVersion, nil)
		off := int64(len(hdr))
		err := seglog.WriteFile(segFormat.Path(s.dir, newSeg), func(w io.Writer) error {
			if _, err := w.Write(hdr); err != nil {
				return err
			}
			var frame []byte
			for i := range s.entries {
				e := &s.entries[i]
				if e.dead || !victims[e.seg] {
					continue
				}
				var err error
				if frame, err = s.readFrame(e, frame); err != nil {
					return err
				}
				if _, err := w.Write(frame); err != nil {
					return err
				}
				newOff[e.seq] = off
				off += e.n
			}
			return nil
		})
		if err != nil {
			return 0, 0, fmt.Errorf("appstore: rewrite into segment %d: %w", newSeg, err)
		}
		s.segs[newSeg] = &segInfo{size: off}
	}
	// The new segment is durable; retiring the victims is now safe (a
	// crash mid-delete leaves duplicates, deduplicated by seq at open).
	for no := range victims {
		info := s.segs[no]
		if info.rd != nil {
			info.rd.Close()
			info.rd = nil
		}
		path := segFormat.Path(s.dir, no)
		if quarantine {
			if _, err := seglog.Quarantine(path, false); err != nil {
				return 0, 0, fmt.Errorf("appstore: %w", err)
			}
		} else if err := os.Remove(path); err != nil {
			s.opt.Logf("appstore: delete compacted segment %d: %v", no, err)
		}
		delete(s.segs, no)
	}
	if err := seglog.SyncDir(s.dir); err != nil {
		return 0, 0, fmt.Errorf("appstore: %w", err)
	}
	// Rebuild the index: drop the dead entries that lived in victim
	// segments, repoint the copied ones.
	kept := s.entries[:0]
	for i := range s.entries {
		e := s.entries[i]
		if victims[e.seg] {
			if e.dead {
				removed++
				continue
			}
			e.seg = newSeg
			e.off = newOff[e.seq]
		}
		kept = append(kept, e)
	}
	s.entries = kept
	s.rebuildIndexLocked()
	if copies > 0 {
		s.segs[newSeg].live = copies
	}
	return copies, removed, nil
}
