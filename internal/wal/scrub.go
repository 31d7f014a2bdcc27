package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"

	"repro/internal/seglog"
)

// Scrubbing proactively re-verifies sealed segments frame-by-frame, so
// latent corruption (bit rot, a bad sector, a partial page write that
// slipped past the rotation fsync) is found on the scrubber's schedule
// instead of at the next recovery, when the damaged record is the one
// replay needs. A damaged segment is repaired by copy-forward: the
// surviving frames are rewritten into a fresh file under the original
// name, and the damaged original is kept hard-linked as
// <segment>.corrupt for forensics — the same quarantine idiom the
// application store uses.
//
// Repair rewrites byte offsets after the first dropped frame, so it is
// only safe once no checkpoint still points into the damaged region;
// the live journal enforces that through ScrubConfig.PreRepair (the
// server checkpoints first), the offline ScrubDir by consulting the
// newest checkpoint on disk.

// ScrubReport describes one scanned segment.
type ScrubReport struct {
	// Seq is the segment sequence number.
	Seq uint64 `json:"seq"`
	// Path is the segment file path.
	Path string `json:"path"`
	// Records is the number of intact records in the segment.
	Records int `json:"records"`
	// BadFrames counts CRC-mismatched or undecodable frames whose
	// extent is still walkable — each one is a lost record the repair
	// drops.
	BadFrames int `json:"bad_frames,omitempty"`
	// FirstBadOff is the offset of the first bad frame (meaningful only
	// when BadFrames > 0).
	FirstBadOff int64 `json:"first_bad_off,omitempty"`
	// TornTail reports bytes at the end that do not form a walkable
	// frame (torn write, or a corrupted length field that makes the
	// remainder unwalkable). A torn tail is not repaired — replay
	// already stops cleanly at it, and TruncateAtCorruption exists for
	// operators who want it gone.
	TornTail bool `json:"torn_tail,omitempty"`
	// TornReason says what ended the walk when TornTail.
	TornReason string `json:"torn_reason,omitempty"`
	// Repaired reports that the segment was rewritten without its bad
	// frames.
	Repaired bool `json:"repaired,omitempty"`
	// SkipReason says why a damaged segment was not repaired.
	SkipReason string `json:"skip_reason,omitempty"`
	// Quarantined is the path of the preserved damaged original ("" if
	// no repair happened).
	Quarantined string `json:"quarantined,omitempty"`
	// OldSize and NewSize are the file sizes before and after repair
	// (equal when no repair happened).
	OldSize int64 `json:"old_size"`
	NewSize int64 `json:"new_size"`
}

// Damaged reports whether the scan found anything wrong at all.
func (r ScrubReport) Damaged() bool { return r.BadFrames > 0 || r.TornTail }

// checkPayload rejects a CRC-valid frame whose payload does not decode;
// the encoder wrote every frame, so only damage produces one.
func checkPayload(p []byte) error {
	_, err := decodePayload(p)
	return err
}

// scrubReport describes a walk over the segment at path that stepped
// over bad frames.
func scrubReport(seq uint64, path string, sc seglog.Scan) ScrubReport {
	rep := ScrubReport{Seq: seq, Path: path, Records: sc.Frames, BadFrames: len(sc.Bad),
		TornTail: sc.Torn, TornReason: sc.Reason, OldSize: sc.Size, NewSize: sc.Size}
	if len(sc.Bad) > 0 {
		rep.FirstBadOff = sc.Bad[0]
	}
	return rep
}

// repairSegment copies the intact frames of the segment at path forward
// under the same name and quarantines the original as .corrupt (see
// seglog.Format.Repair); the report describes the walk that decided
// which frames survived.
func repairSegment(seq uint64, path string) (ScrubReport, error) {
	sc, size, err := segFormat.Repair(path, checkPayload)
	rep := scrubReport(seq, path, sc)
	if err != nil {
		return rep, fmt.Errorf("wal: repair segment %d: %w", seq, err)
	}
	rep.Repaired, rep.Quarantined, rep.NewSize = true, path+".corrupt", size
	return rep, nil
}

// ScrubConfig parameterizes one live-journal scrub pass.
type ScrubConfig struct {
	// MaxSegments caps how many sealed segments one call examines; the
	// journal keeps a cursor so successive calls cycle through all of
	// them. Zero means 1 — the low-rate default.
	MaxSegments int
	// PreRepair, when set, runs after damage is found and before the
	// repair rewrites the segment. uncheckpointed reports that the
	// segment holds records not yet covered by a checkpoint — the
	// caller must take one before the repair shifts offsets (the server
	// does exactly that). Returning an error skips the repair; the
	// damage is re-detected on a later pass.
	PreRepair func(seq uint64, uncheckpointed bool) error
}

// ScrubSummary aggregates one Scrub call.
type ScrubSummary struct {
	// Scanned is how many segments were examined.
	Scanned int
	// Damaged holds the report of every segment with damage, repaired
	// or not.
	Damaged []ScrubReport
}

// Scrub examines up to MaxSegments sealed segments for latent
// corruption, repairing damaged ones in place (quarantining the
// original as .corrupt). The scan runs off the journal lock — sealed
// segments are immutable — and only the repair's metadata swap holds
// it, so appends are not stalled. The active segment is never
// scrubbed.
func (j *Journal) Scrub(cfg ScrubConfig) (ScrubSummary, error) {
	var sum ScrubSummary
	j.mu.Lock()
	if j.done {
		j.mu.Unlock()
		return sum, fmt.Errorf("wal: journal is closed")
	}
	seqs := make([]uint64, len(j.closed))
	for i, s := range j.closed {
		seqs[i] = s.Seq
	}
	picks, next := seglog.Pick(seqs, j.scrubNext, cfg.MaxSegments)
	j.scrubNext = next
	j.stats.ScrubScans += int64(len(picks))
	j.mu.Unlock()
	sum.Scanned = len(picks)
	var firstErr error
	for _, seq := range picks {
		rep, err := j.scrubSegment(seq, cfg.PreRepair)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if rep.Damaged() {
			sum.Damaged = append(sum.Damaged, rep)
		}
	}
	return sum, firstErr
}

// scrubSegment verifies one sealed segment and repairs its bad frames
// when the checkpoint policy allows. The walk checks CRCs only, through
// one bounded buffer, cheap enough to run next to hot ingest; a repair
// re-checks that every surviving payload decodes.
func (j *Journal) scrubSegment(seq uint64, preRepair func(uint64, bool) error) (ScrubReport, error) {
	path := segFormat.Path(j.cfg.Dir, seq)
	sc, err := segFormat.Walk(path, 0, true, nil)
	if errors.Is(err, fs.ErrNotExist) {
		return ScrubReport{}, nil // pruned since the snapshot; not damage
	}
	rep := scrubReport(seq, path, sc)
	if err != nil || !rep.Damaged() {
		return rep, err
	}
	if rep.BadFrames == 0 {
		// Torn tail only: report, never rewrite (see ScrubReport).
		rep.SkipReason = "torn tail is not repaired"
		j.cfg.Logf("wal: scrub found torn tail in sealed segment %d: %s", seq, rep.TornReason)
		return rep, nil
	}
	j.cfg.Logf("wal: scrub found %d bad frame(s) in sealed segment %d (first at offset %d)",
		rep.BadFrames, seq, rep.FirstBadOff)
	j.mu.Lock()
	uncheckpointed := !j.retainSet || seq >= j.retainSeg
	j.mu.Unlock()
	if preRepair != nil {
		if err := preRepair(seq, uncheckpointed); err != nil {
			rep.SkipReason = fmt.Sprintf("pre-repair hook: %v", err)
			j.cfg.Logf("wal: scrub skipping repair of segment %d: %v", seq, err)
			return rep, nil
		}
	} else if uncheckpointed {
		rep.SkipReason = "segment holds un-checkpointed records and no PreRepair hook is set"
		j.cfg.Logf("wal: scrub skipping repair of un-checkpointed segment %d", seq)
		return rep, nil
	}
	// The swap holds j.mu so retention cannot prune the segment out from
	// under the rename.
	j.mu.Lock()
	defer j.mu.Unlock()
	idx := slices.IndexFunc(j.closed, func(s seglog.Seg) bool { return s.Seq == seq })
	if idx < 0 {
		return ScrubReport{}, nil // pruned while we scanned
	}
	fixed, err := repairSegment(seq, path)
	if err != nil {
		rep.SkipReason = fmt.Sprintf("repair failed: %v", err)
		return rep, err
	}
	j.closed[idx].Size = fixed.NewSize
	j.stats.ScrubRepairedSegments++
	j.stats.ScrubLostRecords += int64(fixed.BadFrames)
	j.stats.ScrubQuarantined++
	j.cfg.Logf("wal: scrub repaired segment %d: dropped %d bad frame(s), kept %d record(s), quarantined original as %s",
		seq, fixed.BadFrames, fixed.Records, filepath.Base(fixed.Quarantined))
	return fixed, nil
}

// ScrubDir scrubs every segment in a journal directory offline (the
// daemon must not have it open). With repair set, damaged segments are
// rewritten without their bad frames and the originals quarantined as
// .corrupt — except where the newest checkpoint still points into the
// region a repair would shift, which is reported and skipped. Without
// repair it is a pure report.
func ScrubDir(dir string, repair bool) ([]ScrubReport, error) {
	segs, err := segFormat.List(dir)
	if err != nil {
		return nil, err
	}
	cp, err := LatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	var out []ScrubReport
	for _, seg := range segs {
		path := segFormat.Path(dir, seg.Seq)
		sc, err := segFormat.Walk(path, 0, true, func(_ int64, p []byte) error {
			if err := checkPayload(p); err != nil {
				return seglog.Corrupt(err)
			}
			return nil
		})
		if err != nil {
			return out, err
		}
		rep := scrubReport(seg.Seq, path, sc)
		switch {
		case rep.BadFrames > 0 && !repair:
			rep.SkipReason = "repair not requested"
		case rep.BadFrames > 0 && cp != nil && seg.Seq == cp.Pos.Seg && rep.FirstBadOff < cp.Pos.Off:
			rep.SkipReason = fmt.Sprintf("newest checkpoint replays from offset %d, past the first bad frame at %d", cp.Pos.Off, rep.FirstBadOff)
		case rep.BadFrames > 0:
			if rep, err = repairSegment(seg.Seq, path); err != nil {
				return out, err
			}
		case rep.TornTail:
			rep.SkipReason = "torn tail is not repaired"
		}
		out = append(out, rep)
	}
	return out, nil
}
